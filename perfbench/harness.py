"""Measurement loop of the braidcover benchmark; `run.py` is the entry point.

One op is one grid line passed to `braidcover.cli.run_batch([line])` with
its defaults (recheck on, coset cap 10^6, canonical reports).  Ops run in a
closed loop with one client in this process; each op is timed, in CPU
time (see `run_pass`), from the call to the returned verdict and then
checked by `oracle.check`.  A pass runs every op of the workload once;
passes repeat until the next one would end after `--seconds`, and at
least one runs.

With `--trace 1` the run first times the fan-out of one `run_batch(lines)`
at workers=min(2, nproc) against workers=1 (see `fanout_lines`), then
alternates untraced and traced passes.  Spans of the traced passes go to
`.perfbench-out/spans-<workload>-<seed>.jsonl` under the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import defaultdict

import oracle
import spans as spanlib
import workloads

SETUP_SAMPLES = 11              # this process's import plus ten fresh ones
SHOWN_FAILURES = 5
FANOUT_SMOKE_OPS = 100          # mix lines fanned out on the other workloads
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("latency_p50_ms", "ms"),
              ("latency_tail_ms", "ms"), ("decided_share", "share"),
              ("failed_share", "share"), ("peak_rss_mb", "MB"))
# failed_share is printed with the others but left out of the JSON result,
# whose "failed" field carries the same count; a metric that is 0 on a
# healthy run cannot carry a relative bound.
RESULT_END_TO_END = [name for name, _ in END_TO_END if name != "failed_share"]


def tail(samples, percent):
    """(value, samples above it) of the nearest-rank percentile."""
    xs = sorted(samples)
    rank = max(1, -(-percent * len(xs) // 100))
    return xs[rank - 1], len(xs) - rank


def fresh_import_seconds():
    """The first `import braidcover.cli` in a new interpreter, timed the
    way run.py times its own."""
    snippet = ("import sys, time; sys.path.insert(0, %r); t = time.perf_counter(); "
               "import braidcover.cli; print(repr(time.perf_counter() - t))"
               % os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", snippet], capture_output=True,
                         text=True, timeout=120, check=True, cwd=ROOT)
    return float(out.stdout.strip().splitlines()[-1])


class Tally:
    """Latencies and pass times of the untraced passes, oracle outcomes of
    every pass.

    Times are kept in arrays, which the collector does not traverse: in
    lists, the collection before each op would visit every latency taken
    so far, and its cost would grow with each pass."""

    def __init__(self):
        self.walls = array("d")
        self.collect_s = array("d")     # per pass, the part of the wall in collections
        self.elapsed_s = array("d")     # per pass, the ops' time by the wall clock
        self.latencies = array("d")
        self.by_line = defaultdict(lambda: array("d"))
        self.attempted = self.failed = self.decided = 0
        self.failures = []

    def check(self, op, outcome):
        problems, decided = oracle.check(op, outcome)
        self.attempted += 1
        self.decided += decided
        if problems:
            self.failed += 1
            if len(self.failures) < SHOWN_FAILURES:
                self.failures.append((op.line, problems))


def run_pass(run_batch, ops, tally, recorder=None):
    """Run every op once and check it as soon as it returns, so no report
    outlives its op.  Returns the pass time: the sum of the op times and
    of the collections between them.

    A full collection before each op starts every op with the collector's
    counters at zero, so the collections inside an op depend on that op
    alone and not on which ops the seed put before it; left to the
    interpreter, the medians of ladder and twisted spread beyond their
    bound between seeds.  The collection sweeps the garbage the ops before it left, so
    its time counts in the pass time, though not in any op's latency.
    `main` freezes the objects that exist before the first pass, so a
    collection costs what the program's garbage costs and not a scan of
    the benchmark's own data.

    Times are the CPU time of this process.  The program runs in this one
    thread and does not wait on I/O, so on a machine of its own that is the
    time from call to verdict.  On a virtual machine the kernel leaves out
    of it the time the hypervisor gives this vCPU to another guest (steal),
    which would otherwise count as the program's.  The wall-clock time of
    the ops is kept beside it, so the run can show the difference."""
    clock = time.process_time
    wall = swept = elapsed = 0.0
    for i, op in enumerate(ops):
        if recorder is not None:
            recorder.op = i
        t0 = clock()
        gc.collect()
        swept += clock() - t0
        t0, e0 = clock(), time.perf_counter()
        try:
            results, counts = run_batch([op.line])
            outcome = (results[0], next(k for k, n in counts.items() if n))
        except Exception as e:      # counted as a failed op; the run goes on
            outcome = e
        latency = clock() - t0
        elapsed += time.perf_counter() - e0
        wall += latency
        if recorder is None:
            tally.latencies.append(latency)
            tally.by_line[op.line].append(latency)
        tally.check(op, outcome)
    if recorder is None:
        tally.walls.append(wall + swept)
        tally.collect_s.append(swept)
        tally.elapsed_s.append(elapsed)
    return wall + swept


def fanout_lines(workload, seed, ops):
    """The lines the fan-out is timed on: the whole pass on mix, which is
    where the figure is meant to be read.  The other workloads fan out the
    first FANOUT_SMOKE_OPS lines of mix with the same seed, so that every
    traced run reports the metric and checks that both paths agree,
    at the cost of about a second."""
    if workload == "mix":
        return [op.line for op in ops]
    return [op.line for op in workloads.generate("mix", seed)[:FANOUT_SMOKE_OPS]]


def measure_fanout(run_batch, lines):
    """(speedup, outputs equal, workers, lines) of run_batch(lines) at
    min(2, nproc) workers against one worker."""
    workers = min(2, len(os.sched_getaffinity(0)))
    try:
        t0 = time.perf_counter()
        one = run_batch(lines, workers=1)
        t1 = time.perf_counter()
        many = run_batch(lines, workers=workers)
        t2 = time.perf_counter()
    except Exception as e:          # reported as a failed run, not a crash
        print("fan-out batch raised %s: %s" % (type(e).__name__, e))
        return 0.0, False, workers, len(lines)
    return (t1 - t0) / (t2 - t1), one == many, workers, len(lines)


def run_untraced(cli, ops, seconds):
    tally = Tally()
    start = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        run_pass(cli.run_batch, ops, tally)
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - start + longest > seconds:
            return tally


def run_traced(cli, ops, seconds, fanout_on):
    """Untraced and traced passes in turn; (tally, traced pass times,
    per-pass layer metrics, spans, missing names, fan-out)."""
    start = time.perf_counter()
    fanout = measure_fanout(cli.run_batch, fanout_on)
    tally = Tally()
    traced_walls, per_pass, all_spans = [], [], []
    recorder = spanlib.SpanRecorder()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        run_pass(cli.run_batch, ops, tally)
        recorder.install()
        try:
            traced_walls.append(run_pass(cli.run_batch, ops, tally, recorder))
        finally:
            recorder.uninstall()
        recorded = recorder.take()
        per_pass.append(spanlib.layer_metrics(recorded))
        all_spans.append(recorded)
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - start + longest > seconds:
            return tally, traced_walls, per_pass, all_spans, recorder.missing, fanout


def end_to_end(tally, setup_samples, tail_percent):
    value, above = tail(tally.latencies, tail_percent)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.fmean(tally.walls),
        "latency_p50_ms": statistics.median(tally.latencies) * 1e3,
        "latency_tail_ms": value * 1e3,
        "decided_share": tally.decided / tally.attempted,
        "failed_share": tally.failed / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {"latency_tail_ms": "p%g of %d samples, %d above it%s"
             % (tail_percent, len(tally.latencies), above,
                "" if above >= 10 else " (fewer than ten)"),
             "wall_s": "mean of %d passes, %.3g s of it in collections; "
                       "the ops took %.4g s by the wall clock"
                       % (len(tally.walls), statistics.fmean(tally.collect_s),
                          statistics.fmean(tally.elapsed_s)),
             "setup_s": "median of %d imports" % len(setup_samples),
             "decided_share": "%d of %d ops" % (tally.decided, tally.attempted),
             "failed_share": "%d of %d ops" % (tally.failed, tally.attempted)}
    return metrics, notes


def write_spans(path, all_spans):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    keys = ("name", "start", "end", "parent", "op", "status", "counters", "observe_s")
    with open(path, "w") as f:
        for n, recorded in enumerate(all_spans):
            for span in recorded:
                row = dict(zip(keys, span))
                row["pass"] = n
                f.write(json.dumps(row, separators=(",", ":")) + "\n")


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measure until the next pass would end after this")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from traced passes")
    return ap.parse_args(argv)


def main(argv, import_s, cli):
    args = parse_args(argv)
    setup_samples = [import_s] + [fresh_import_seconds()
                                  for _ in range(SETUP_SAMPLES - 1)]
    ops = workloads.generate(args.workload, args.seed)
    print("workload %s, seed %d: %d ops per pass, inputs sha256 %s"
          % (args.workload, args.seed, len(ops), workloads.lines_digest(ops)))
    gc.collect()
    gc.freeze()
    if args.trace:
        tally, traced_walls, per_pass, all_spans, missing, fanout = \
            run_traced(cli, ops, args.seconds,
                       fanout_lines(args.workload, args.seed, ops))
    else:
        tally = run_untraced(cli, ops, args.seconds)
    metrics, notes = end_to_end(tally, setup_samples,
                                workloads.TAIL_PERCENT[args.workload])
    units = dict(END_TO_END)
    for name, unit in END_TO_END:
        print("  %-16s %12.6g %-5s %s" % (name, metrics[name], unit, notes.get(name, "")))
    slowest = sorted(tally.by_line.items(), key=lambda kv: -statistics.median(kv[1]))
    print("slowest ops, median over passes:")
    for line, lats in slowest[:3]:
        print("  %10.1f ms  %s" % (statistics.median(lats) * 1e3, line[:100]))
    for line, problems in tally.failures:
        print("FAILED %s: %s" % (line[:100], "; ".join(problems)))
    correct = tally.failed == 0
    if args.trace:
        speedup, same, workers, nlines = fanout
        layer = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
        layer["cli.fanout_speedup"] = speedup
        layer["trace.overhead_s"] = (statistics.median(traced_walls)
                                     - statistics.median(tally.walls))
        units = spanlib.per_layer_units()
        print("per layer, median of %d traced passes (untraced wall %.4g s, traced %.4g s):"
              % (len(per_pass), statistics.median(tally.walls),
                 statistics.median(traced_walls)))
        for name in units:
            print("  %-34s %12.6g %s" % (name, layer[name], units[name]))
        print("  ordercheck.coset_yield is the sum of group orders over the sum "
              "of cosets defined, closed enumerations only")
        print("  cli.fanout_speedup: %d workers against 1 on %d%s lines, outputs %s"
              % (workers, nlines, "" if args.workload == "mix" else " mix",
                 "equal" if same else "DIFFER"))
        if missing:
            print("wrapped names not found: %s" % ", ".join(missing))
        path = os.path.join(ROOT, ".perfbench-out",
                            "spans-%s-%d.jsonl" % (args.workload, args.seed))
        write_spans(path, all_spans)
        print("spans: %s" % os.path.relpath(path, ROOT))
        correct = correct and same
        result = {name: {"value": layer[name], "unit": units[name]} for name in units}
    else:
        result = {name: {"value": metrics[name], "unit": units[name]}
                  for name in RESULT_END_TO_END}
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": result}))
    return 0
