"""One benchmark client in a fresh interpreter.

Started by run.py with ``PYTHONPATH`` pointing at the checkout's ``src``.
It sets up (imports, generates the seeded pool, warms up), then runs jobs
one at a time in a closed loop: the next job starts only when the previous
one has returned.  Between jobs the reference work of calibrate.py runs,
outside the jobs' times.  Checks run between jobs, outside the timed region.
The last stdout line is a JSON object for run.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from time import perf_counter

from calibrate import Calibrator, ExactUnit, StartupUnit
from tracer import Tracer
from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def cpu_s():
    """CPU seconds (user + system) used so far by this process and its reaped children.

    A job's CPU time is its wall time less the time the machine ran
    something else: time the hypervisor took the CPU away (steal) or the
    scheduler gave it to another process.  The client runs one job at a
    time, single-threaded, without waiting on I/O, so that is all it leaves
    out.
    """
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ru.ru_utime + ru.ru_stime


class Client:
    """Runs jobs from the pool and records CPU time, wall time, outcome and digests."""

    def __init__(self, workload, calibrator=None):
        self.wl = workload
        self.calibrator = calibrator
        self.latencies = []  # CPU seconds per job
        self.walls = []
        self.indices = []
        self.attempted = 0
        self.failed = 0
        self.digests = {}
        self.errors = []

    def job(self, idx, **kwargs):
        self.attempted += 1
        self.indices.append(idx)
        c, t = cpu_s(), perf_counter()
        try:
            out = self.wl.run(idx, **kwargs)
        except Exception:  # a traceback is a failed job; keep the loop running
            self._time(c, t)
            self._fail(f"job {idx}: {traceback.format_exc(limit=3)}")
            return
        self._time(c, t)
        ok, canon, detail = self.wl.check(idx, out)
        if canon is not None:
            digest = hashlib.sha256(canon.encode("utf-8")).hexdigest()
            if self.digests.setdefault(idx, digest) != digest:
                ok, detail = False, f"job {idx}: output changed between repeats"
        if not ok:
            self._fail(detail)

    def _time(self, c, t):
        self.walls.append(perf_counter() - t)
        self.latencies.append(cpu_s() - c)
        if self.calibrator is not None:
            self.calibrator.keep_up(self.latencies[-1])

    def _fail(self, detail):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(detail)


def import_times(repeats=3):
    """Median cumulative import time of weylmin and numpy, from -X importtime."""
    found = {"weylmin": [], "numpy": []}
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import weylmin"],
                              capture_output=True, text=True, timeout=60)
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
            if m and m.group(2) in found:
                found[m.group(2)].append(int(m.group(1)) / 1e6)
    return {name: statistics.median(v) if v else 0.0 for name, v in found.items()}


def timed_loop(client, start, seconds, finish=None):
    """Cycle through the pool from position ``start`` and return the next position.

    Without ``finish`` the loop stops after ``seconds``.  With ``finish =
    (total_s, used_s)`` it is the last leg of a run that has already used
    ``used_s`` of ``total_s`` seconds: it stops only at a pass boundary, at
    the one that brings the run's length nearest to ``total_s``, so every
    pool entry runs equally often.
    """
    n = len(client.wl.items)
    begin = perf_counter()
    pos = start
    while True:
        elapsed = perf_counter() - begin
        if finish is None:
            if elapsed >= seconds:
                return pos
        elif pos and pos % n == 0:
            total_s, used_s = finish
            run_s = used_s + elapsed
            if run_s + 0.5 * run_s / (pos // n) > total_s:
                return pos
        client.job(pos % n)
        pos += 1


def traced_passes(client, seconds, workdir):
    """Alternate untraced and traced passes over the pool; return the spans."""
    wl = client.wl
    n = len(wl.items)
    is_cli = wl.name == "cli-readme"
    trace_file = os.path.join(workdir, "trace.jsonl")
    if is_cli:
        wl.env["BENCH_TRACE_FILE"] = trace_file
    tracer = Tracer()
    untraced, traced = [], []
    begin = perf_counter()
    pair_s = 0.0
    # Whole passes only, so per-job counts repeat exactly; stop before a pair
    # of passes would run past the measured time.
    while not traced or perf_counter() - begin + pair_s <= seconds:
        pair_begin = perf_counter()
        mark = len(client.latencies)
        for idx in range(n):
            client.job(idx)
        untraced.extend(client.latencies[mark:])
        mark = len(client.latencies)
        if not is_cli:
            tracer.install()
        try:
            for idx in range(n):
                client.job(idx, **({"traced": True} if is_cli else {}))
        finally:
            tracer.uninstall()
        traced.extend(client.latencies[mark:])
        pair_s = perf_counter() - pair_begin
    spans = [tracer.snapshot()]
    if is_cli:
        with open(trace_file, encoding="utf-8") as fh:
            spans = [json.loads(line) for line in fh]
    return untraced, traced, spans, sorted(tracer.missing)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--start", type=int, default=0, help="position in the pool cycle")
    ap.add_argument("--used", type=float, default=None,
                    help="seconds the run has used so far; makes this its last leg")
    ap.add_argument("--probe", action="store_true", help="only set up, then report")
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--root", required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    wl = WORKLOADS[args.workload](args.root, args.seed)
    if wl.name == "cli-readme":
        wl.setup(args.workdir, os.path.join(BENCH_DIR, "traced_cli.py"))
    else:
        wl.setup()
    wl.warmup()
    setup_s, setup_wall_s = cpu_s(), time.monotonic() - args.t0

    n = len(wl.items)
    result = {"setup_s": setup_s, "setup_wall_s": setup_wall_s}
    if args.probe:
        print(json.dumps(result))
        return
    if args.trace:
        client = Client(wl)
        untraced, traced, spans, missing = traced_passes(client, args.seconds, args.workdir)
        result.update(untraced=untraced, traced=traced, spans=spans, missing=missing,
                      imports=import_times())
    else:
        unit = StartupUnit() if wl.name == "cli-readme" else ExactUnit()
        unit.warmup()
        calibrator = Calibrator(unit)
        client = Client(wl, calibrator)
        finish = None if args.used is None else (args.seconds, args.used)
        begin = perf_counter()
        result["next"] = timed_loop(client, args.start, args.seconds, finish)
        result["loop_s"] = perf_counter() - begin
        if wl.name == "cli-readme":
            result["peak_rss_kb"] = wl.peak_rss_kb
        else:
            result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["scaled"] = calibrator.scaled(client.latencies)
        result["unit_s"] = [t for _, t in calibrator.units]
    result.update(latencies=client.latencies, walls=client.walls, indices=client.indices,
                  attempted=client.attempted, failed=client.failed, digests=client.digests,
                  errors=client.errors, pool=n)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
