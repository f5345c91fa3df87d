"""Benchmark of the yinyang package: closed loop, one client, one process.

    python3 perfbench/run.py --workload verify_requests --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the root of a checkout; the package is imported from ./src.
With --trace 0 the run measures the end-to-end metrics with tracing off.
Between requests it times a fixed calibration loop that touches nothing of
the package, and it scales each request's time to a fixed calibration time
(see Calibration), so the figures follow the program rather than how fast
the shared host happened to run at the time.
With --trace 1 every request runs twice, once untraced and once with spans
around the package's public functions (alternating which goes first); the
run reports the per-layer metrics and the tracing overhead, and writes the
spans to perfbench/out/.  The last line of standard output is one JSON
object: correct, attempted, failed and the metrics with their units.
"""

from __future__ import annotations

import os

# Pin library thread pools before numpy loads, so no figure depends on
# the machine's defaults.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
sys.path.insert(0, str(ROOT))

from perfbench import tracing, workloads as W  # noqa: E402

SETUP_REPEATS = 5
CALIBRATION_EVERY_S = 0.2         # wall time between calibration loops
CALIBRATION_REFERENCE_S = 0.005   # calibration time the end-to-end times are scaled to
UNATTRIBUTED_LIMIT = 0.05  # share of traced request time outside every layer span
END_TO_END_UNITS = {"throughput_rps": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}
WAITING_NOTE = ("no layer has waiting time: one process, one client, closed loop, "
                "no queues or locks")


class SetupError(Exception):
    pass


# -- environment ---------------------------------------------------------------


def environment() -> dict:
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    try:
        # only a repository rooted at this checkout names its commit
        lines = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                               capture_output=True, text=True, timeout=10).stdout.split()
        if len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "yinyang").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit or "not a git checkout",
        "source_sha256": digest.hexdigest()[:16],
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


# -- calibration -----------------------------------------------------------------


class Calibration:
    """Times of a fixed loop of Python and numpy work, run between requests.

    The shared host runs this process at speeds that differ by up to half
    for minutes at a time, and every request's time moves with it.  The
    loop touches nothing of the package, so its time follows the host
    alone; scaling a request's time by CALIBRATION_REFERENCE_S over the
    loop's time around the request gives the time the request would take
    on a host that runs the loop in CALIBRATION_REFERENCE_S.  The loop runs
    outside every timed request, at most every CALIBRATION_EVERY_S.
    """

    def __init__(self):
        self._array = np.random.default_rng(0).random(50_000)
        self.ends: list[float] = []    # when each loop ended
        self.times: list[float] = []   # seconds each loop took

    def _loop(self) -> int:
        total = 0
        for i in range(30_000):
            total += i * i % 7
        for _ in range(3):
            x = np.mod(self._array * 3.1 + 0.2, 1.0)
            np.maximum(x, 0.3, out=x)
        return total

    def run(self, force: bool = False) -> None:
        """Time the loop, unless it ran less than CALIBRATION_EVERY_S ago."""
        start = time.perf_counter()
        if not force and self.ends and start - self.ends[-1] < CALIBRATION_EVERY_S:
            return
        self._loop()
        end = time.perf_counter()
        self.ends.append(end)
        self.times.append(end - start)

    def scale(self, start: float, end: float) -> float:
        """Reference time over the mean of the loops just before `start` and just after `end`."""
        near = [self.times[k] for k in (bisect.bisect_right(self.ends, start) - 1,
                                        bisect.bisect_left(self.ends, end))
                if 0 <= k < len(self.times)]
        return CALIBRATION_REFERENCE_S / statistics.fmean(near)


# -- set-up ----------------------------------------------------------------------


class Context:
    """Imported package, generated inputs and the executor for one workload.

    Building one is the set-up: import ``yinyang`` afresh, generate the
    first cycle of inputs and run the warm-up requests.  Later cycles are
    generated when the run reaches them, between requests.
    """

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.work = OUT / f"work-{workload}-{seed}"
        src = ROOT / "src"
        if not (src / "yinyang" / "__init__.py").is_file():
            raise SetupError(f"no package source at {src / 'yinyang'}")
        if str(src) not in sys.path:
            sys.path.insert(0, str(src))
        for name in [n for n in sys.modules if n == "yinyang" or n.startswith("yinyang.")]:
            del sys.modules[name]
        importlib.import_module("yinyang")
        self.cli = importlib.import_module("yinyang.cli")
        self.circle_sets = importlib.import_module("yinyang.circle_sets")
        generate, warmup = W.GENERATORS[workload]
        self._stream = generate(seed, self.work)
        self.cycles = [next(self._stream)]
        self.golden = W.read_golden(ROOT) if workload == "render_requests" else {}
        self.work.mkdir(parents=True, exist_ok=True)
        for req in warmup(self.work):
            self.execute(req)
            self.collect(req)

    def cycle(self, i: int) -> list[W.Request]:
        """Cycle i, drawing the cycles before it from the stream if need be."""
        while len(self.cycles) <= i:
            self.cycles.append(next(self._stream))
        return self.cycles[i]

    def execute(self, req: W.Request):
        """The timed part of a request."""
        if req.kind == "arcs":
            return W.run_arc_request(self.circle_sets.CircleSet, req.payload)
        return self.cli.run([*req.argv, "--out", str(self.work / req.out_name)])

    def collect(self, req: W.Request, result=None) -> W.Outcome:
        """Gather a request's outputs and remove its files, so none is seen twice."""
        if req.kind == "arcs":
            return W.Outcome(value=result)
        out = W.Outcome(rc=result)
        names = W.render_output_names(req) if req.argv[0] == "render" else [req.out_name]
        for name in names:
            path = self.work / name
            if path.exists():
                out.files[name] = path.read_bytes()
                path.unlink()
        return out

    def check(self, req: W.Request, out: W.Outcome) -> str:
        if out.error:
            return out.error
        if self.workload == "verify_requests":
            return W.check_verify(req, out)
        if self.workload == "oracle_requests":
            return W.check_oracle(req, out)
        if self.workload == "arc_algebra":
            return W.check_arcs(req, out)
        return W.check_render(req, out, self.golden)

    def run_one(self, req: W.Request, tracer: tracing.Tracer | None = None) -> tuple[float, float, W.Outcome, str]:
        """Execute and time one request (traced when a tracer is given), then collect and check it.

        Returns the start time, the elapsed time, the outcome and the reason it failed.
        """
        result, error = None, ""
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            try:
                result = tracer.traced(self.execute, req) if tracer else self.execute(req)
            except Exception as exc:  # a request that raises is a failed request, not a crash
                error = "raised " + " | ".join(traceback.format_exception(exc, limit=-3)).replace("\n", " ")
            elapsed = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        out = self.collect(req, result)
        out.error = error
        try:
            reason = self.check(req, out)
        except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
            reason = f"malformed output: {exc!r}"
        return start, elapsed, out, reason


def set_up(workload: str, seed: int, calibration: Calibration) -> tuple[Context, float]:
    """SETUP_REPEATS set-ups back to back: the last context and the median scaled time."""
    times = []
    for _ in range(SETUP_REPEATS):
        calibration.run(force=True)
        start = time.perf_counter()
        ctx = Context(workload, seed)
        times.append((start, time.perf_counter() - start))
    calibration.run(force=True)
    return ctx, statistics.median(elapsed * calibration.scale(start, start + elapsed) for start, elapsed in times)


# -- measurement ---------------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile with ten samples beyond it.

    With ten or fewer samples no percentile has ten beyond it; the
    maximum is reported with the count actually beyond it (zero).
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


class Tally:
    def __init__(self):
        self.requests: list[W.Request] = []
        self.cycles: list[int] = []
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.output_bytes = 0

    def add(self, cycle: int, req: W.Request, start: float, elapsed: float, out: W.Outcome, reason: str) -> None:
        self.requests.append(req)
        self.cycles.append(cycle)
        self.starts.append(start)
        self.latencies.append(elapsed)
        self.output_bytes += sum(len(b) for b in out.files.values())
        if reason:
            self.failures.append(f"{req.argv or req.tags}: {reason}")

    def scaled(self, calibration: Calibration, cycles: int) -> list[float]:
        """Times of the requests of the first `cycles` cycles, scaled to the reference calibration."""
        return [elapsed * calibration.scale(start, start + elapsed)
                for cycle, start, elapsed in zip(self.cycles, self.starts, self.latencies) if cycle < cycles]


def measure(ctx: Context, seconds: float, calibration: Calibration,
            tracer: tracing.Tracer | None = None) -> tuple[Tally, Tally, int]:
    """Closed loop until `seconds` of wall time have passed and MIN_CYCLES cycles are done.

    Returns the tallies and the number of whole cycles completed.  With a
    tracer every request runs twice, untraced and traced, alternating which
    goes first; the second tally holds the traced runs.
    """
    plain, traced = Tally(), Tally()
    least = W.MIN_CYCLES[ctx.workload]
    start = time.perf_counter()
    for cycle in itertools.count():
        for req in ctx.cycle(cycle):
            if cycle >= least and time.perf_counter() - start >= seconds:
                calibration.run(force=True)
                return plain, traced, cycle
            calibration.run()
            if tracer is None:
                plain.add(cycle, req, *ctx.run_one(req))
                continue
            tracer.request_id = rid = tracer.request_id + 1
            for traced_turn in ((False, True) if rid % 2 == 0 else (True, False)):
                if traced_turn:
                    traced.add(cycle, req, *ctx.run_one(req, tracer))
                else:
                    plain.add(cycle, req, *ctx.run_one(req))


# -- reporting -----------------------------------------------------------------------


def _print_metric(workload: str, name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{workload:<16} {name:<46} {value!r:>24} {unit}{'  ' + note if note else ''}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    tracer = tracing.Tracer() if trace else None
    calibration = Calibration()
    sink = open(os.devnull, "w")  # the CLI reports written files on stderr
    try:
        with contextlib.redirect_stderr(sink):
            ctx, setup_s = set_up(workload, seed, calibration)
            tally, traced, cycles = measure(ctx, seconds, calibration, tracer)
    finally:
        sink.close()
    n = len(tally.latencies)
    props = W.input_properties(workload, tally.requests)
    print(f"# inputs {json.dumps({'workload': workload, 'seed': seed, 'cycles': cycles, **props}, sort_keys=True)}")
    print(f"# waiting {WAITING_NOTE}")
    failures = tally.failures + traced.failures
    for reason in failures[:20]:
        print(f"# failed {reason}")
    attempted = n + len(traced.latencies)
    correct = not failures
    print(f"{workload:<16} {'failed_ratio':<46} {len(failures) / attempted!r:>24} ratio  "
          f"({len(failures)} of {attempted} requests)")
    if not trace:
        whole = cycles // W.PERIODS[workload] * W.PERIODS[workload]
        scaled = tally.scaled(calibration, whole)
        ns = len(scaled)
        value, pct, beyond = tail(scaled)
        metrics = {
            "throughput_rps": ns / sum(scaled),
            "latency_p50_ms": statistics.median(scaled) * 1e3,
            "latency_tail_ms": value * 1e3,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        loops = calibration.times
        print(f"# unscaled: {n} requests in {sum(tally.latencies)!r} s of service time, "
              f"{n / sum(tally.latencies)!r} 1/s, p50 {statistics.median(tally.latencies) * 1e3!r} ms, "
              f"tail {tail(tally.latencies)[0] * 1e3!r} ms; calibration loop median "
              f"{statistics.median(loops) * 1e3!r} ms over {len(loops)} runs, reference "
              f"{CALIBRATION_REFERENCE_S * 1e3!r} ms")
        notes = {"latency_tail_ms": f"(p{pct:.4g} of {ns} samples, {beyond} beyond)",
                 "setup_s": f"(median of {SETUP_REPEATS} set-ups back to back, scaled)",
                 "throughput_rps": f"({ns} requests of {whole} whole cycles, service time only)"}
        for name, value in metrics.items():
            _print_metric(workload, name, value, END_TO_END_UNITS[name], notes.get(name, ""))
        return {"correct": correct, "attempted": attempted, "failed": len(failures),
                "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}}

    nt = len(traced.latencies)
    layers = tracing.layer_metrics(tracer, nt, traced.output_bytes)
    plain_rps = n / sum(tally.latencies)
    traced_rps = nt / sum(traced.latencies)
    summary = tracer.summary()
    layer_self_ns = sum(row["self"] for name, row in summary.items() if name != tracing.ROOT)
    unattributed = 1.0 - layer_self_ns / (sum(traced.latencies) * 1e9)
    layers["trace.overhead_rps"] = (plain_rps - traced_rps, "1/s")
    layers["trace.overhead_share"] = (1.0 - traced_rps / plain_rps, "ratio")
    layers["trace.unattributed_share"] = (unattributed, "ratio")
    print(f"# trace untraced {plain_rps!r} 1/s, traced {traced_rps!r} 1/s over the same {nt} requests; "
          f"root self time {summary[tracing.ROOT]['self'] / 1e9!r} s")
    if not 0.0 <= unattributed <= UNATTRIBUTED_LIMIT:
        correct = False
        print(f"# failed self times cover {1.0 - unattributed:.4f} of traced request time, "
              f"limit {1.0 - UNATTRIBUTED_LIMIT}")
    for name, (value, unit) in layers.items():
        _print_metric(workload, name, value, unit)
    spans_path = OUT / f"spans-{workload}-{seed}.jsonl"
    tracer.write(spans_path)
    print(f"# spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    return {"correct": correct, "attempted": attempted, "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}}


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Every workload, each in its own process so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in W.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SetupError(f"workload {workload} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*W.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, args.trace)
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
