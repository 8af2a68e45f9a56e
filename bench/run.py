"""Benchmark of the attnconcolic attack pipeline.

One workload per process:

    python3 bench/run.py --workload grid-2px --seed 1 --seconds 30 --trace 0

prints the environment block, the end-to-end report (every metric with its
unit and sample count), the output-check result and the work fingerprint,
and as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` each operation runs
once untraced and once traced, and the metrics are the per-layer ones, with
self times and the tracing overhead.

All four workloads, each in its own process:

    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run it from the repository root.  Records and spans go to ``bench/out/``.
See bench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
# In untraced runs set-up runs back to back before the first operation, in
# at least SETUP_REPEATS batches and until SETUP_MIN_S seconds have passed.
# A batch repeats set-up until SETUP_BATCH_S seconds have passed, and its
# sample is the mean time of one set-up; setup_s is the median sample.  A
# cheap set-up (about 1.5 ms in shapley-8x8) timed alone reads either about
# 1.5 ms or about 5.5 ms, as it misses or meets a 4 ms scheduler slice given
# to another task, and its median jumps between the two; a batch averages
# those slices.
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0
SETUP_BATCH_S = 0.1
# No operation starts after this many seconds of operations, so that a run
# of a much slower commit still ends in time; the operations left out count
# as failed.
RUN_LIMIT_S = 120.0
EXIT_SOLVER_PREFLIGHT = 3
# Seconds of loop probe before the first operation and after each one.
LOOP_PROBE_S = 0.04

# the package under test comes from this checkout's src/, also in the
# solver processes the smt-1px workload starts
sys.path.insert(0, str(ROOT / "src"))
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)

# One CPU for the benchmark and the solver processes it starts, so that the
# host probe runs on the CPU the timed work runs on (the two CPUs of a shared
# host slow down apart), and numpy's BLAS, which sizes its thread pool from
# this set when imported, runs one thread.
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def _steal_ticks():
    """Steal ticks of all CPUs from /proc/stat (read only); None if absent."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def _loop_probe_s(seconds: float = LOOP_PROBE_S) -> float:
    """Median time of a fixed pure-Python loop, run for ``seconds``.

    On a shared host the speed the benchmark gets drifts by tens of percent
    over seconds to minutes, with near-zero steal ticks, so the spread of a
    raw time across runs measures the host more than the program.  This
    loop slows with the host as in-process pipeline work does: divided by
    it, the time of an 8x8 influence map spread 0.04 over 30 s windows where
    the raw time spread 0.23, closer than with numpy kernels as the probe.
    Nothing in it depends on the program under test."""
    times = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        start = time.perf_counter()
        total = 0
        for i in range(5000):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _spawn_probe_s() -> float:
    """Time to start a Python process that imports numpy and exits.

    Most of a refsolver check is such a start, and process start-up slows
    with the host unlike the loop above: over 30 s windows, smt-1px time
    per check spread 0.15 raw, 0.06 divided by the loop probe and 0.03
    divided by this one.  Nothing in it depends on the program under test."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - start


PROBES = {"loop": _loop_probe_s, "spawn": _spawn_probe_s}


def _child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_workload(args) -> int:
    workload = workloads.WORKLOADS[args.workload]
    traced = bool(args.trace)
    # a fixed number of operations, so that a faster commit covers the same
    # inputs; --seconds 0 makes one
    count = max(1, round(args.seconds * workload.ops_per_s))
    steal0, child0, cpu0 = _steal_ticks(), _child_cpu_s(), time.process_time()
    origin = time.perf_counter()
    tracer = tracing.Tracer() if traced else None

    setup_times: list[float] = []
    try:
        if traced:
            tracer.op = "setup"
            with tracer.installed(None):
                state = workload.setup(args.seed, count)
        else:
            setup_start = time.perf_counter()
            while (len(setup_times) < SETUP_REPEATS
                   or time.perf_counter() - setup_start < SETUP_MIN_S):
                start, batch = time.perf_counter(), 0
                while batch == 0 or time.perf_counter() - start < SETUP_BATCH_S:
                    state = workload.setup(args.seed, count)
                    batch += 1
                setup_times.append((time.perf_counter() - start) / batch)
    except workloads.PreflightError as exc:
        print(f"solver pre-flight failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER_PREFLIGHT

    records: list[workloads.Record] = []
    untraced: list[workloads.Record] = []
    child_traced = 0.0

    def run_pair(index):
        # With --trace 1 every operation also runs untraced, first or second in
        # turn, so neither copy always finds the process-wide expression table
        # warm; both copies must do the same work.
        nonlocal child_traced
        pair = {}
        for copy in ("plain", "traced") if index % 2 == 0 else ("traced", "plain"):
            if copy == "plain":
                pair[copy] = workload.run_op(state, index)
                continue
            tracer.op = index
            child = _child_cpu_s()
            with tracer.installed(state["guard"]):
                pair[copy] = workload.run_op(state, index)
            child_traced += _child_cpu_s() - child
        plain, record = pair["plain"], pair["traced"]
        untraced.append(plain)
        if plain.work != record.work:
            record.problems.append(
                f"traced run differs from untraced: {workloads.digest(record.work)} "
                f"vs {workloads.digest(plain.work)}")
            record.failure = record.failure or "output check"
        return record

    guard = state["guard"]
    with guard.installed() if guard else contextlib.nullcontext():
        start = time.perf_counter()
        host_probe = PROBES[workload.probe]
        probe = host_probe()
        for index in range(count):
            if time.perf_counter() - start > RUN_LIMIT_S:
                records.append(workloads.Record(
                    index, {"outcome": "not started"}, {}, [],
                    f"not started: run limit of {RUN_LIMIT_S} s reached"))
                continue
            record = run_pair(index) if traced else workload.run_op(state, index)
            after = host_probe()
            record.timing["probe_s"] = (probe + after) / 2
            probe = after
            records.append(record)
    setup_s = statistics.median(setup_times) if setup_times else None
    if traced:
        tracer.op = "finish"
        with tracer.installed(None):
            final = workload.finish(state)
    else:
        final = workload.finish(state)
    if final is not None:
        records.append(final)

    attempted = len(records)
    failed = sum(1 for r in records if r.failure)
    problems = [(r.op, p) for r in records for p in r.problems]
    report = workload.report(records)
    steal1 = _steal_ticks()
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": int(traced), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "wall_s": time.perf_counter() - origin,
        "cpu_s": time.process_time() - cpu0,
        "child_cpu_s": _child_cpu_s() - child0,
        "steal_ticks_delta": None if None in (steal0, steal1) else steal1 - steal0,
    }
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    units = [(unit, r.timing["probe_s"]) for r in records
             if (unit := workload.unit_s(r)) is not None]
    unit_ms = 1e3 * workloads.median0([unit for unit, _ in units])
    probes = [r.timing["probe_s"] for r in records if "probe_s" in r.timing]
    env["probe_us"] = [1e6 * min(probes, default=0.0), 1e6 * workloads.median0(probes),
                       1e6 * max(probes, default=0.0)]
    if traced:
        plain_ms = 1e3 * workloads.median0(
            [unit for r in untraced if (unit := workload.unit_s(r)) is not None])
        overhead = unit_ms / plain_ms - 1.0 if plain_ms else 0.0
        iterations = sum(r.work.get("iterations", 0) for r in records)
        layers = tracing.per_layer(tracer.spans, iterations, state["spawn_s"],
                                   child_traced, state["external"], overhead)
        metrics = {name: entry for name, entry in layers.items()
                   if tracing.in_result_line(name)}
    else:
        metrics = {
            "unit_norm": {"value": workloads.median0([u / probe for u, probe in units]),
                          "unit": "ratio"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        report["setup_s"] = (setup_s, "s", len(setup_times))
    report["unit_ms"] = (unit_ms, "ms", len(units))
    report["peak_rss_mb"] = (peak_rss_mb, "MB", 1)
    report["failed_ratio"] = (failed / attempted, "ratio", attempted)
    fingerprint = workloads.digest([r.work for r in records])

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{int(traced)}"
    doc = {
        "env": env, "report": report, "metrics": metrics,
        "fingerprint": fingerprint,
        "records": [{"op": r.op, "work": r.work, "timing": r.timing,
                     "problems": r.problems, "failure": r.failure} for r in records],
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    if traced:
        tracer.write(str(OUT_DIR / f"{stem}-spans.jsonl"), origin)

    print("env " + json.dumps(env))
    for name, (value, unit, count) in report.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"report {name} {shown} {unit} n={count}")
    if traced:
        for name, entry in layers.items():
            print(f"layer {name} {entry['value']:.6g} {entry['unit']}")
    print(f"failed {failed}/{attempted}")
    for r in records:
        if r.failure:
            print(f"failed op {r.op}: {r.failure}")
    if problems:
        for op, problem in problems:
            print(f"output_check FAILED op {op}: {problem}")
    else:
        print(f"output_check ok ({attempted} operations)")
    print(f"fingerprint {fingerprint} ops={attempted}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, untraced and (with --trace 1)
    traced; print the reports side by side and compare fingerprints."""
    status = 0
    for name in workloads.WORKLOADS:
        docs = {}
        for trace in (0, 1) if args.trace else (0,):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            status = status or (0 if result["correct"] else 1)
            for line in proc.stdout.splitlines()[:-1]:
                if trace == 0 or not line.startswith("report "):
                    print(f"{name} trace={trace} {line}")
            stem = f"{name}-seed{args.seed}-trace{trace}.json"
            docs[trace] = json.loads((OUT_DIR / stem).read_text(encoding="utf-8"))
        if len(docs) == 2:
            plain = {r["op"]: r["work"] for r in docs[0]["records"]}
            common = [r for r in docs[1]["records"] if r["op"] in plain]
            same = all(plain[r["op"]] == r["work"] for r in common)
            print(f"{name} fingerprints traced vs untraced: "
                  f"{'equal' if same else 'DIFFER'} on {len(common)} common operations")
            status = status or (0 if same else 1)
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time at the seed commit; sets the number of "
                             "operations (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
