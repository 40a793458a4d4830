"""Reference work that measures how fast the machine is running right now.

The benchmark shares a host whose speed drifts: the same job's CPU time
moves by 20-50% over minutes, and a whole run can fall in a slow stretch.
Steal time is not the cause (CPU time follows the drift), so the benchmark
measures the drift instead.  Between jobs the client runs a fixed piece of
reference work that belongs to the benchmark, not to the program, and
reports each job's CPU time scaled to the speed at which one reference
unit takes its nominal time (``nominal_s``).  A change to the program does
not touch the reference, so it moves the scaled figures as much as the raw
ones; a slow stretch of the machine slows both and cancels.

Each workload gets the reference that drifts with its jobs:

* :class:`ExactUnit` runs in the client's own interpreter right after
  every job: products of polynomials over the Gaussian rationals
  (``fractions.Fraction`` in dicts), the kind of work the exact layers do.
  The speed drifts within seconds, so each job is scaled by the unit next
  to it.  The cyclic collector is off during a unit (the unit makes no
  cycles), so neither the program's heap nor its collector settings move
  the reference.
* :class:`StartupUnit` starts a fresh isolated interpreter (``-I``: no
  ``PYTHONPATH``, so no weylmin) that imports numpy and a few standard
  modules, the kind of work a CLI call's start-up does.  It costs about
  half a CLI job, so it runs for 15% of the job time, at least once in
  every five jobs, and scales those five.  Its CPU time comes from
  ``os.wait4`` for that child alone.
"""

from __future__ import annotations

import gc
import os
import random
import signal
import statistics
import subprocess
import sys
import time

from exact import G, pmul


class ExactUnit:
    nominal_s = 0.010
    window = 1  # jobs per scale: each job is scaled by the unit run right after it
    share = 0.0

    def __init__(self):
        rng = random.Random(0)
        self.a = {(k, j): G(rng.randint(-9, 9), rng.randint(-9, 9))
                  for k in range(6) for j in range(2)}

    def warmup(self):
        for _ in range(3):
            self()

    def __call__(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            t = time.process_time()
            pmul(pmul(self.a, self.a), self.a)
            return time.process_time() - t
        finally:
            if enabled:
                gc.enable()


class StartupUnit:
    nominal_s = 0.180
    window = 5  # jobs per scale
    share = 0.15  # reference CPU time per job CPU time
    CODE = "import numpy, fractions, json, argparse"

    def __init__(self, env=None):
        self.env = os.environ if env is None else env

    def warmup(self):
        self()

    def __call__(self):
        pid = os.posix_spawn(sys.executable, [sys.executable, "-I", "-c", self.CODE], self.env,
                             file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
        try:
            _, status, ru = os.wait4(pid, 0)
        except BaseException:  # stopped while waiting: stop the child too
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        if os.waitstatus_to_exitcode(status) != 0:
            raise subprocess.SubprocessError("reference interpreter failed")
        return ru.ru_utime + ru.ru_stime


class Calibrator:
    """Interleaves reference units with jobs and scales job times by them.

    Jobs are grouped into windows of ``unit.window`` jobs.  After every
    job the client calls :meth:`keep_up`, which runs units until the
    window has one and the reference has used ``unit.share`` of the job
    CPU time so far.  A job's scale is ``nominal_s`` over the median unit
    time of its window.
    """

    def __init__(self, unit):
        self.unit = unit
        self.window = unit.window
        self.units = []  # (window, seconds)
        self.jobs = 0
        self.job_cpu = 0.0
        self.ref_cpu = 0.0

    def keep_up(self, job_cpu):
        w = self.jobs // self.window
        self.jobs += 1
        self.job_cpu += job_cpu
        while (not self.units or self.units[-1][0] != w
               or self.ref_cpu < self.unit.share * self.job_cpu):
            t = self.unit()
            self.units.append((w, t))
            self.ref_cpu += t

    def scaled(self, latencies):
        """``latencies`` (one per job, in order) at the reference's nominal speed."""
        by_window = {}
        for w, t in self.units:
            by_window.setdefault(w, []).append(t)
        scale = {w: self.unit.nominal_s / statistics.median(ts) for w, ts in by_window.items()}
        return [t * scale[k // self.window] for k, t in enumerate(latencies)]
