"""weylmin benchmark: seeded closed-loop workloads with output checks.

Usage (from the root of a checkout):

    python3 bench/run.py --workload surface-verify --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all

The program is run from the checkout's own ``src`` through
``sys.executable`` with ``PYTHONPATH``; nothing is installed.  With
``--trace 0`` the last stdout line is a JSON object holding every
end-to-end metric of BENCHMARK.json: CPU times scaled to the machine speed
that reference work of the benchmark's own measures next to the jobs (see
calibrate.py).  With ``--trace 1`` it holds every per-layer metric instead,
taken from a separate traced run.  A readable summary, with the unscaled
figures, goes to stderr.  See bench/DESIGN.md for the choices behind the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from calibrate import StartupUnit

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
GOLDENS = ("enneper.json", "enneper2.json", "pair_r4.json", "quartic.json")

# Fresh interpreters per untraced run: the timed ones each set up and then
# run a share of the measured time; the probes only set up.  setup_s is the
# median over all their set-ups.
TIMED_WORKERS = 3
SETUP_PROBES = 6
RUN_DEADLINE_S = 165  # every run must end within 180 s


class BenchError(Exception):
    pass


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_checkout():
    """The benchmark measures the program in this checkout, so it must be here."""
    needed = [os.path.join("src", "weylmin", "__init__.py"), "BENCHMARK.json"]
    needed += [os.path.join("tests", "goldens", g) for g in GOLDENS]
    missing = [p for p in needed if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        raise BenchError(f"not a weylmin checkout (missing {', '.join(missing)})")


def workload_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn_worker(workload, seed, seconds, workdir, deadline, *extra):
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--t0", repr(t0),
           "--root", ROOT, "--workdir", workdir, *extra]
    # Own process group, so the worker and any CLI job it is running can be
    # stopped together.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=workload_env(), cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker exceeded the run deadline")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{workload} worker exited with {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def fingerprint(results):
    """SHA-256 over every pool entry's exact output, or None if one never ran."""
    digests, ran = {}, set()
    for r in results:
        digests.update(r["digests"])
        ran.update(r["indices"])
    if len(ran) < results[0]["pool"]:
        return None
    lines = "\n".join(f"{i}:{digests[i]}" for i in sorted(digests, key=int))
    return hashlib.sha256(lines.encode("utf-8")).hexdigest()


def apply_fingerprint(name, seed, results, expected, summary):
    """A changed exact output on the default seed fails every job."""
    got = fingerprint(results)
    summary["fingerprint"] = got
    if name not in expected["fingerprints"] or seed != expected["default_seed"]:
        return
    if got != expected["fingerprints"][name]:
        summary["failed"] = summary["attempted"]
        summary["errors"].append(f"exact-output fingerprint {got} != recorded "
                                 f"{expected['fingerprints'][name]}")


def untraced_run(name, seed, seconds, workdir, expected, deadline):
    # Each set-up is paired with a reference interpreter started just before
    # it, and setup_s is scaled by that pair's ratio (see calibrate.py).
    ref = StartupUnit(workload_env())
    ref.warmup()
    setups = []
    for _ in range(SETUP_PROBES):
        unit_s = ref()
        r = spawn_worker(name, seed, 0, workdir, deadline, "--probe")
        setups.append((r["setup_s"], r["setup_wall_s"], unit_s))
    # One job sequence cycling through the pool, handed from interpreter to
    # interpreter.  The last one ends it on a pass boundary, so every pool
    # entry weighs the same in the percentiles whatever the seed's order.
    results = []
    pos, used = 0, 0.0
    for k in range(TIMED_WORKERS):
        unit_s = ref()
        if k < TIMED_WORKERS - 1:
            r = spawn_worker(name, seed, seconds / TIMED_WORKERS, workdir, deadline,
                             "--start", str(pos))
        else:
            r = spawn_worker(name, seed, seconds, workdir, deadline, "--start", str(pos),
                             "--used", repr(used))
        results.append(r)
        setups.append((r["setup_s"], r["setup_wall_s"], unit_s))
        pos, used = r["next"], used + r["loop_s"]
    summary = {
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "errors": [e for r in results for e in r["errors"]],
    }
    apply_fingerprint(name, seed, results, expected, summary)
    indices = [i for r in results for i in r["indices"]]
    best = entry_times(indices, [t for r in results for t in r["scaled"]])
    deciles = statistics.quantiles(best, n=10, method="inclusive")
    values = {
        "setup_s": ref.nominal_s * statistics.median(s / u for s, _, u in setups),
        "job_p50_ms": statistics.median(best) * 1000.0,
        "job_p90_ms": deciles[8] * 1000.0,
        "jobs_per_s": len(best) / sum(best),
        "peak_rss_mb": max(r["peak_rss_kb"] for r in results) / 1024.0,
    }
    summary["entries"] = len(best)
    summary["repeats"] = summary["attempted"] // len(best)
    # Unscaled figures, for reading only: they carry the machine's drift.
    summary["raw"] = {
        "setup_wall_s": statistics.median(w for _, w, _ in setups),
        "setup_cpu_s": statistics.median(s for s, _, _ in setups),
        "setup_unit_ms": statistics.median(u for _, _, u in setups) * 1000.0,
        "job_p50_wall_ms": statistics.median(
            entry_times(indices, [t for r in results for t in r["walls"]])) * 1000.0,
        "job_p50_cpu_ms": statistics.median(
            entry_times(indices, [t for r in results for t in r["latencies"]])) * 1000.0,
        "unit_ms": statistics.median(t for r in results for t in r["unit_s"]) * 1000.0,
    }
    return values, summary


def entry_times(indices, latencies):
    """Each pool entry's median over its repeats in the run, in seconds."""
    by_entry = {}
    for idx, t in zip(indices, latencies):
        by_entry.setdefault(idx, []).append(t)
    return sorted(statistics.median(v) for v in by_entry.values())


def traced_run(name, seed, seconds, workdir, expected, deadline):
    r = spawn_worker(name, seed, seconds, workdir, deadline, "--trace", "1")
    calls, self_s, total_s, counts = {}, {}, {}, {}
    for snap in r["spans"]:
        for acc, key in ((calls, "calls"), (self_s, "self_s"), (total_s, "total_s"),
                         (counts, "counts")):
            for layer, v in snap[key].items():
                acc[layer] = acc.get(layer, 0) + v
    jobs = len(r["traced"])
    values = {}
    for layer in set(calls) | set(self_s):
        values[f"{layer}.calls"] = calls.get(layer, 0) / jobs
        values[f"{layer}.self_s"] = self_s.get(layer, 0.0) / jobs
    for key, v in counts.items():
        values[key] = v / jobs
    main_calls = calls.get("cli.main", 0)
    values["cli.main_s"] = total_s["cli.main"] / main_calls if main_calls else 0.0
    values["cli.import_s"] = r["imports"]["weylmin"]
    values["cli.import_numpy_s"] = r["imports"]["numpy"]
    # Traced and untraced passes each run the pool in order 0..n-1.
    passes = [k % r["pool"] for k in range(len(r["traced"]))]
    values["trace.overhead_frac"] = (statistics.median(entry_times(passes, r["traced"]))
                                     / statistics.median(entry_times(passes, r["untraced"])) - 1)
    summary = {"attempted": r["attempted"], "failed": r["failed"], "errors": list(r["errors"]),
               "missing": r["missing"]}
    apply_fingerprint(name, seed, [r], expected, summary)
    return values, summary


def run_workload(name, seed, seconds, trace, spec, expected):
    workdir = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        if trace:
            values, summary = traced_run(name, seed, seconds, workdir, expected, deadline)
        else:
            values, summary = untraced_run(name, seed, seconds, workdir, expected, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in declared:
        # Layers a workload never enters report zero (per-layer metrics only).
        v = values.get(m["name"], 0.0) if trace else values[m["name"]]
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }, summary


def describe(name, seed, result, summary, file):
    s = summary
    print(f"== {name} (seed {seed}): {s['attempted']} jobs attempted, {s['failed']} failed, "
          f"failed_frac {s['failed'] / max(1, s['attempted']):.4f}", file=file)
    for metric, m in result["metrics"].items():
        print(f"   {metric:34s} {m['value']:14.6g} {m['unit']}", file=file)
    if "entries" in s:
        print(f"   pool entries {s['entries']}, each timed {s['repeats']} times", file=file)
        print("   unscaled: " + ", ".join(f"{k} {v:.4g}" for k, v in s["raw"].items()), file=file)
    if s.get("fingerprint"):
        print(f"   exact-output fingerprint {s['fingerprint']}", file=file)
    for msg in s.get("missing", []):
        print(f"   not traced (absent): {msg}", file=file)
    for err in s["errors"]:
        print(f"   FAILED: {err}", file=file)


def prime():
    """Compile the program's bytecode and warm the file cache before timing."""
    subprocess.run([sys.executable, "-c", "import weylmin.cli"], env=workload_env(), cwd=ROOT,
                   capture_output=True, timeout=120, check=True)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through spawn_worker's cleanup


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or all")
    ap.add_argument("--seed", type=int, default=None, help="workload seed (default: bench/expected.json)")
    ap.add_argument("--seconds", type=int, default=None, help="measured seconds per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        check_checkout()
        spec = load_json(spec_path)
        expected = load_json(os.path.join(BENCH_DIR, "expected.json"))
        names = [w["name"] for w in spec["workloads"]]
        if args.workload != "all" and args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {names} or all")
        seed = expected["default_seed"] if args.seed is None else args.seed
        seconds = args.seconds or spec["run_seconds"]
        if seconds < 1:
            raise BenchError("--seconds must be at least 1")
        prime()
        if args.workload != "all":
            result, summary = run_workload(args.workload, seed, seconds, args.trace, spec, expected)
            describe(args.workload, seed, result, summary, sys.stderr)
            print(json.dumps(result))
            return 0
        results = {}
        for name in names:
            result, summary = run_workload(name, seed, seconds, args.trace, spec, expected)
            describe(name, seed, result, summary, sys.stdout)
            results[name] = result
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
