"""sqwalk benchmark: one closed-loop client driving the library in-process.

Usage, from the root of a checkout (the directory holding src/sqwalk):

    python3 perfbench/run.py --workload streams --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py and BENCHMARK.json): streams, classify, search, cli.
The client sends the next op only after the previous one has finished, and
runs whole rounds, as many as bring the run closest to --seconds.

With --trace 0 it prints the end-to-end metrics: setup_s (median time, over
several fresh interpreters, until ``import sqwalk`` has finished), ops_per_s,
op_p50_ms and op_p90_ms (interpolated; a failed op counts as slower than
every completed one), work_per_s and peak_rss_mb.  work_per_s counts letters
generated or exactly verified on streams (letters_per_s), vertices parsed,
classified and rendered on classify (vertices_per_s), single searches (graphs
and colouring classes swept) on search, and requests on cli.  Rates divide by
the time spent inside ops, which excludes the benchmark's own answer checks
and host probes.

Host speed: on a shared virtual machine the same code can run 40% slower for
tens of seconds at a time.  So a fixed pure-Python probe (the fastest of
PROBE_REPEATS short loops, so that one preempted loop does not count) is timed
before and after every op (and every set-up spawn), and each op's time is
scaled by PROBE_REF_S over the mean of the two probes, clamped to
[1 / MAX_SCALE, MAX_SCALE]: the times and rates reported are those of a host
on which the probe takes PROBE_REF_S.  The median raw probe time is printed.

With --trace 1 each round runs twice, untraced and traced, and it prints
the per-layer metrics (per traced round), a table of busy-time shares per
layer, the tracing overhead, and writes every span to
.perfbench_out/trace-<workload>-seed<seed>.jsonl.

The last line of stdout is one JSON object: correct (no op returned a wrong
answer, and every op that crashed is tagged as a known defect), attempted,
failed (wrong answers plus crashes) and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

OUT_DIR = ".perfbench_out"
SETUP_REPEATS = 9
PROBE_LOOPS = 1700
PROBE_REPEATS = 3
PROBE_REF_S = 1.65e-4
MAX_SCALE = 2.0

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("work_per_s", "1/s"), ("peak_rss_mb", "MB"))
WORK_NAME = {"streams": "letters_per_s", "classify": "vertices_per_s",
             "search": "searches_per_s", "cli": "requests_per_s"}


def probe() -> float:
    """Fastest of a few timings of a fixed pure-Python loop: the host's speed
    right now."""
    best = math.inf
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def host_scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two probes into the time on
    the reference host."""
    scale = 2 * PROBE_REF_S / (before + after)
    return min(max(scale, 1 / MAX_SCALE), MAX_SCALE)


def measure_setup(src: str) -> float:
    """Median time, scaled to the reference host, from spawning a fresh
    interpreter until ``import sqwalk`` returns."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import sqwalk; "
            "sys.stdout.write('ok'); sys.stdout.flush()")
    scaled = []
    for i in range(SETUP_REPEATS + 1):  # the first spawn warms the bytecode cache
        before = probe()
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-I", "-c", code, src],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        first = proc.stdout.read(2)
        t1 = time.perf_counter()
        _, err = proc.communicate()
        if first != b"ok" or proc.returncode != 0:
            raise RuntimeError(f"import sqwalk failed in a fresh interpreter: {err.decode()}")
        if i:
            scaled.append((t1 - t0) * host_scale(before, probe()))
    return statistics.median(scaled)


class Tally:
    """Outcomes and op latencies of one pass over a list of ops."""

    def __init__(self):
        self.latencies: list[float] = []   # completed ops only, scaled to the reference host
        self.op_time = 0.0                 # scaled, all ops
        self.probes: list[float] = []      # raw probe times
        self.work = 0
        self.attempted = 0
        self.wrong = 0
        self.crashed = 0
        self.unexpected = 0                # crashes of ops not tagged as a known defect
        self.failures: list[tuple] = []    # (op, message)

    @property
    def failed(self) -> int:
        return self.wrong + self.crashed

    @property
    def correct(self) -> bool:
        return self.wrong == 0 and self.unexpected == 0


def run_ops(ops, tally: Tally, tracer=None, first_id: int = 0) -> None:
    from workloads import WrongAnswer  # importable once src/ is on sys.path
    for i, op in enumerate(ops):
        run = op.run
        if tracer is not None:
            tracer.op = first_id + i
            run = tracer.wrap("bench.op", op.run)
        tally.attempted += 1
        before = probe() if i == 0 else after
        t0 = time.perf_counter()
        try:
            result, crash = run(), None
        except Exception as exc:  # a crash is a failed op; the loop goes on
            result, crash = None, exc
        dt = time.perf_counter() - t0
        after = probe()
        tally.probes.append(after)
        dt *= host_scale(before, after)
        tally.op_time += dt
        if crash is not None:
            tally.crashed += 1
            known = op.tags.get("known_defect")
            tally.unexpected += not known
            tally.failures.append((op, f"{op.kind} {op.key[:3]} raised {type(crash).__name__}"
                                   + (f" (known: {known})" if known else
                                      "\n" + "".join(traceback.format_exception(crash)[-3:]))))
            continue
        try:
            op.check(result)
        except WrongAnswer as exc:
            tally.wrong += 1
            tally.failures.append((op, f"{op.kind} {op.key[:3]} wrong answer: {exc}"))
            continue
        tally.latencies.append(dt)
        tally.work += op.work


def percentile(latencies: list[float], failed: int, q: float) -> float:
    """q-quantile of all attempted ops, interpolated between completed ones.

    A failed op never meets a latency limit: it counts as slower than every
    completed op.
    """
    done = sorted(latencies)
    pos = q * (len(done) + failed) - 0.5
    if pos > len(done) - 1:
        return math.inf
    pos = max(pos, 0.0)
    lo = int(pos)
    hi = min(lo + 1, len(done) - 1)
    return done[lo] + (done[hi] - done[lo]) * (pos - lo)


def end_to_end(tally: Tally, setup_s: float) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "ops_per_s": len(tally.latencies) / tally.op_time,
        "op_p50_ms": 1e3 * percentile(tally.latencies, tally.failed, 0.5),
        "op_p90_ms": 1e3 * percentile(tally.latencies, tally.failed, 0.9),
        "work_per_s": tally.work / tally.op_time,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description="sqwalk benchmark (run from the repository root)")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure whole rounds until this much time has passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "sqwalk", "__init__.py")):
        print("perfbench: src/sqwalk not found; run from the root of a sqwalk checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import sqwalk
    if not os.path.abspath(sqwalk.__file__).startswith(src + os.sep):
        print(f"perfbench: imported sqwalk from {sqwalk.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = os.path.join(OUT_DIR, f"inputs-{args.workload}-{os.getpid()}")
    try:
        setup = measure_setup(src) if not args.trace else 0.0
        wl = workloads.Workload(args.workload, args.seed, scratch)
        if args.trace:
            return traced_run(args, wl)
        return plain_run(args, wl, setup)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _report(tally: Tally, metrics: dict[str, float], units: dict[str, str]) -> None:
    for _, message in tally.failures[:10]:
        print(f"perfbench: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def _more_rounds(start: float, round_start: float, seconds: float) -> bool:
    """Start another round unless it would end further past the target than
    stopping now falls short of it."""
    now = time.perf_counter()
    return now - start + (now - round_start) / 2 < seconds


def plain_run(args, wl, setup_s: float) -> int:
    tally, rounds = Tally(), 0
    start = round_start = time.perf_counter()
    while rounds == 0 or _more_rounds(start, round_start, args.seconds):
        round_start = time.perf_counter()
        run_ops(wl.round(rounds), tally)
        rounds += 1
    if not tally.latencies:
        print("perfbench: no op completed", file=sys.stderr)
        return 1
    metrics = end_to_end(tally, setup_s)
    units = dict(END_TO_END)
    w = args.workload
    for name, unit in END_TO_END:
        print(f"{w:<9} {name:<14} {metrics[name]:14.6g} {unit}")
    print(f"{w:<9} {WORK_NAME[w]:<14} {metrics['work_per_s']:14.6g} 1/s")
    print(f"{w:<9} {'error_rate':<14} {tally.failed / tally.attempted:14.6g} ratio "
          f"({tally.failed} of {tally.attempted} ops)")
    print(f"{w:<9} {'op_samples':<14} {len(tally.latencies):14d} count "
          f"({rounds} rounds, {tally.op_time:.2f} s in ops)")
    print(f"{w:<9} {'host_probe_ms':<14} {1e3 * statistics.median(tally.probes):14.6g} ms "
          f"(median; times above are scaled to {1e3 * PROBE_REF_S:g} ms)")
    _report(tally, metrics, units)
    return 0


def traced_run(args, wl) -> int:
    import tracing
    import workloads

    tracer = tracing.Tracer()
    plain, traced, rounds = Tally(), Tally(), 0
    start = round_start = time.perf_counter()
    while rounds == 0 or _more_rounds(start, round_start, args.seconds):
        round_start = time.perf_counter()
        ops = wl.round(rounds)
        # Alternate which pass goes first, so warm-up does not bias the overhead.
        for traced_pass in ((False, True) if rounds % 2 == 0 else (True, False)):
            if not traced_pass:
                run_ops(ops, plain)
                continue
            tracer.install(workloads.API)
            try:
                run_ops(ops, traced, tracer, first_id=traced.attempted)
            finally:
                tracer.uninstall()
        rounds += 1
    metrics = tracing.layer_metrics(tracer, rounds, plain.op_time, traced.op_time,
                                    traced.attempted, traced.failed)
    for line in tracing.share_table(args.workload, metrics):
        print(line)
    metrics = {name: metrics[name] for name, _, _ in tracing.PER_LAYER}
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    for name, unit, _ in tracing.PER_LAYER:
        print(f"{args.workload:<9} {name:<52} {metrics[name]:14.6g} {unit}")
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
    tracer.dump(path)
    print(f"spans written to {path}")
    both = Tally()
    both.attempted = plain.attempted + traced.attempted
    both.wrong = plain.wrong + traced.wrong
    both.crashed = plain.crashed + traced.crashed
    both.unexpected = plain.unexpected + traced.unexpected
    both.failures = plain.failures + traced.failures
    _report(both, metrics, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
