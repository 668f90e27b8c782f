"""Benchmark of the pearcey package: one workload per run.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  One process and one thread
make the calls in a closed loop with one caller: the next call starts
when the previous one returns.

--trace 0 measures the end-to-end metrics; --trace 1 runs the loop
untraced for half the time, then replays the same calls with spans
installed (see spans.py) and reports the per-layer metrics and
the tracing overhead.  Both check a sample of the outputs against the
benchmark's own reference values (refs.py) and exit 1 if any breaks the
correctness gate.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; attempted and
failed count the workload's census, the fixed first calls every run
makes (see workloads.py).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Api, is_finite

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 5
TAIL_BEYOND = 10
# Calls are timed in the process's CPU time, which leaves out the time a
# shared host gives to others.  The host's speed still swings by up to 2x
# on the same work, in spells of seconds, in CPU time as in wall time.  So
# every CALIBRATE_EVERY_NS of the run a fixed pure-Python loop is timed
# too, and each call's CPU time is scaled by REFERENCE_NS_PER_STEP over
# the loop's time per step around it: every time the benchmark reports is
# the time at one fixed reference speed.  The loop runs for about
# CALIBRATE_SHARE of the time since the one before it, so a call of a
# second is calibrated as closely as a quarter second of short calls.
clock = time.process_time_ns
REFERENCE_NS_PER_STEP = 4_000_000 / 30_000
CALIBRATE_EVERY_NS = 250_000_000
CALIBRATE_SHARE = 0.03
MIN_STEPS = 30_000


def calibration(since_ns: float = 0.0) -> float:
    """CPU time per step of a fixed pure-Python loop sized for ``since_ns``, ns."""
    steps = max(MIN_STEPS, int(CALIBRATE_SHARE * since_ns / REFERENCE_NS_PER_STEP))
    start = clock()
    total = 0.0
    for i in range(steps):
        total += math.sin(i * 1e-3) * (i % 7)
    return (clock() - start) / steps


def at_reference_speed(cpu_ns: float, before: float, after: float) -> float:
    """CPU time scaled by the calibration loops timed before and after it."""
    return cpu_ns * 2.0 * REFERENCE_NS_PER_STEP / (before + after)


END_TO_END = [
    ("calls_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("ok_frac", "fraction"),
    ("digits_p50", "digits"),
    ("digits_min", "digits"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def import_package():
    """Import pearcey from this checkout's src/, or exit non-zero."""
    if not (SRC / "pearcey" / "__init__.py").is_file():
        sys.exit(f"bench: no package source at {SRC / 'pearcey'}")
    sys.path.insert(0, str(SRC))
    import pearcey

    if Path(pearcey.__file__).resolve().parent != (SRC / "pearcey").resolve():
        sys.exit(f"bench: imported pearcey from {pearcey.__file__}, not {SRC}")
    return pearcey


def default_api(pearcey):
    import pearcey.cli

    return Api(asymptotic=pearcey.pearcey_asymptotic,
               quadrature=pearcey.pearcey_quadrature,
               cli_main=pearcey.cli.main,
               real_axis=pearcey.QuadratureConfig(strategy=pearcey.REAL_AXIS))


def closed_loop(workload, api, items, seconds=None):
    """Call until ``seconds`` of wall time have passed, the census is made
    and a cycle is complete, or until ``items`` ends.

    Returns calls, each (item, result, latency_ns, ok), in call order;
    latency_ns is the call's CPU time at the reference speed.  Only the
    first ``workload.check_count`` results are kept (the rest are None),
    so the loop's own memory stays small.
    """
    calls, segment = [], []
    loops = [calibration()]
    deadline = time.perf_counter_ns() + int(seconds * 1e9) if seconds is not None else None
    calibrated = time.perf_counter_ns()
    for item in items:
        t0 = clock()
        try:
            result = workload.call(api, item)
        except Exception as exc:  # a failed call is counted, not fatal
            result = exc
        t1 = clock()
        ok = not isinstance(result, Exception) and is_finite(workload.value(result))
        calls.append((item, result if len(calls) < workload.check_count else None,
                      t1 - t0, ok))
        segment.append(len(loops) - 1)
        now = time.perf_counter_ns()
        if now - calibrated >= CALIBRATE_EVERY_NS:
            loops.append(calibration(now - calibrated))
            calibrated = time.perf_counter_ns()
        if (len(calls) % workload.cycle == 0 and deadline is not None
                and now >= deadline and len(calls) >= workload.census):
            break
    loops.append(calibration(time.perf_counter_ns() - calibrated))
    return [(item, result, at_reference_speed(ns, loops[i], loops[i + 1]), ok)
            for (item, result, ns, ok), i in zip(calls, segment)]


def census(workload, calls) -> tuple[int, int]:
    """(attempted, failed) over the run's first ``workload.census`` calls.

    Every run makes these calls whatever its length, so the two counts
    repeat from run to run; later calls' failures count in ok_frac.
    """
    counted = calls[:workload.census]
    return len(counted), sum(not c[3] for c in counted)


def check_outputs(workload, calls, refs):
    """Digits of each checked output, and the gate's problems."""
    digits, problems, seen = [], [], set()
    for item, result, _, ok in calls[:workload.check_count]:
        key = repr(item)
        if not ok or key in seen:
            continue
        seen.add(key)
        verdict = workload.check(item, result, refs)
        if verdict.digits is not None:
            digits.append(verdict.digits)
        if verdict.problem:
            problems.append(verdict.problem)
    return digits, problems


def tail(latencies_ns):
    """(percentile, value) of the highest percentile with TAIL_BEYOND samples above.

    Below 2 * TAIL_BEYOND + 1 samples that percentile would fall under the
    median; the upper median is reported instead.
    """
    ordered = sorted(latencies_ns)
    rank = max(len(ordered) // 2 + 1, len(ordered) - TAIL_BEYOND)
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def windowed_tail(workload, latencies_ns):
    """``tail`` in each window of ``workload.window`` calls; the median over windows.

    A fixed window keeps the percentile the same however fast the code
    runs, and the median keeps a burst of machine noise in one window out
    of the figure.  A run shorter than one window is a single window.
    """
    size = workload.window
    windows = [latencies_ns[i:i + size] for i in range(0, len(latencies_ns) - size + 1, size)]
    tails = [tail(window) for window in windows or [latencies_ns]]
    return tails[0][0], statistics.median(value for _, value in tails), len(tails)


def setup_time(workload, item) -> float:
    """Median CPU time of a fresh interpreter importing pearcey and making
    one call, at the reference speed."""
    code = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n" + workload.probe(item)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    times, loop = [], calibration(1e9)
    for _ in range(SETUP_REPEATS):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                       stdout=subprocess.DEVNULL)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu_ns = 1e9 * (after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)
        previous, loop = loop, calibration(cpu_ns)
        times.append(at_reference_speed(cpu_ns, previous, loop) / 1e9)
    return statistics.median(times)


def end_to_end(workload, api, items, seconds, refs):
    first = next(items)
    setup_s = setup_time(workload, first)
    closed_loop(workload, api, [first])  # warm-up: lazy imports, mpmath node caches
    calls = closed_loop(workload, api, items, seconds)
    # before the check: reference values are the benchmark's, not the program's
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    digits, problems = check_outputs(workload, calls, refs)
    latencies = [c[2] for c in calls]
    busy_ns = sum(latencies)
    failed = sum(not c[3] for c in calls)
    attempted, census_failed = census(workload, calls)
    percentile, tail_ns, windows = windowed_tail(workload, latencies)
    metrics = {
        "calls_per_s": len(calls) / (busy_ns / 1e9),
        "latency_p50_ms": statistics.median(latencies) / 1e6,
        "latency_tail_ms": tail_ns / 1e6,
        "ok_frac": 1.0 - failed / len(calls),
        "digits_p50": statistics.median(digits) if digits else 0.0,
        "digits_min": min(digits) if digits else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    units = dict(END_TO_END)
    print(f"workload {workload.name}: {len(calls)} calls in {busy_ns / 1e9:.3f} s, "
          f"{failed} failed (fail_frac {failed / len(calls):.4g}), "
          f"{len(digits)} outputs checked against references; "
          f"census: {census_failed} of the first {attempted} calls failed")
    window = min(len(calls), workload.window)
    print(f"  latency_tail is p{percentile:.4g} of {window} samples "
          f"({window - round(percentile * window / 100)} beyond it), "
          f"median over {windows} window(s); setup_s is the median of {SETUP_REPEATS}; "
          f"times are CPU times at the reference speed")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    report = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    return report, attempted, census_failed, problems


def traced(workload, api, items, seconds, refs, dump_path):
    from spans import PER_LAYER, Tracer

    closed_loop(workload, api, [next(items)])  # warm-up, as untraced
    calls = closed_loop(workload, api, items, seconds / 2.0)
    plain_ns = sum(c[2] for c in calls)
    _, problems = check_outputs(workload, calls, refs)
    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter_ns()
        replay = closed_loop(workload, tracer.api(api), [c[0] for c in calls])
        wall_ns = time.perf_counter_ns() - start
    finally:
        tracer.uninstall()
    traced_ns = sum(c[2] for c in replay)
    tracer.dump(dump_path)
    layers = tracer.layer_metrics(wall_ns)
    layers["trace.overhead_frac"] = (traced_ns / plain_ns - 1.0, "fraction")
    attempted, failed = census(workload, calls)
    print(f"workload {workload.name}: {len(calls)} calls untraced in "
          f"{plain_ns / 1e9:.3f} s, replayed traced in {traced_ns / 1e9:.3f} s "
          f"(CPU times at the reference speed); "
          f"{len(tracer.spans)} spans written to {dump_path}; "
          f"census: {failed} of the first {attempted} calls failed")
    for name, _, _ in PER_LAYER:
        value, unit = layers[name]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name} = {shown} {unit}")
    report = {name: {"value": layers[name][0], "unit": layers[name][1]}
              for name, _, _ in PER_LAYER}
    return report, attempted, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pearcey = import_package()
    from refs import ReferenceCache

    workload = WORKLOADS[args.workload]
    api = default_api(pearcey)
    items = workload.inputs(random.Random(args.seed))
    refs = ReferenceCache(BENCH / ".refcache" / "refs.json")
    tag = f"{workload.name}-seed{args.seed}"
    if args.trace:
        report, attempted, failed, problems = traced(
            workload, api, items, args.seconds, refs, OUT / f"spans-{tag}.jsonl")
    else:
        report, attempted, failed, problems = end_to_end(
            workload, api, items, args.seconds, refs)
    refs.save()
    for problem in problems[:20]:
        print(f"  INCORRECT: {problem}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": report}
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
