#!/usr/bin/env python3
"""Run one dsebench workload and print its result as one JSON line.

Usage, from the root of a checkout:

    python3 dsebench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 dsebench/run.py --self-test
    python3 dsebench/run.py --report [--seed N] [--seconds S]

The first call configures and builds the harness (dsebench/CMakeLists.txt,
which compiles ../src) into .bench_build/dsebench; later calls only check
that the build is current. With --trace 0 the result carries the end-to-end
metrics; with --trace 1 the per-layer metrics of the traced replay, and the
spans are written to .bench_build/traces/. The line before the result holds
the workload's own named metrics, the error rate and the run's provenance.

--self-test runs every workload of BENCHMARK.json at small sizes, traced and
untraced, and checks that each named metric is emitted with its unit, that
every check passed (including replay front == explore() front), and that
no operation failed.

--report runs every workload of BENCHMARK.json at full size, untraced and
then traced, and prints each end-to-end, named and per-layer metric with its
unit, one per line. See dsebench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

PKG = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "dsebench")
BINARY = os.path.join(BUILD, "dsebench")
# Fresh processes timed from spawn until the estimators are ready, half
# before the workload and half after it; the median is setup_s.
SETUP_SPAWNS = 8
# A run must end within 180 s; leave room for set-up and the build check.
RUN_DEADLINE_S = 170


def log(*parts):
    print("dsebench:", *parts, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


def build():
    """Configure once, then bring the harness binary up to date."""
    if not os.path.isfile(os.path.join(PKG, "..", "src", "CMakeLists.txt")):
        raise BenchError("no DHDL sources next to dsebench/ (need ../src)")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", PKG, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            + gen,
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "dsebench", "-j", jobs],
        stdout=sys.stderr, check=True)
    if not os.access(BINARY, os.X_OK):
        raise BenchError("build produced no " + BINARY)


def setup_seconds(n):
    """Wall-clock of n fresh processes, from spawn until calibration is
    done. Each is pinned to one CPU, taking the CPUs in turn: on a
    shared host the CPUs run at different speeds, and an unpinned
    process lands on a fast or a slow one by chance."""
    cpus = sorted(os.sched_getaffinity(0))
    times = []
    for i in range(n):
        cpu = cpus[i % len(cpus)]
        t0 = time.perf_counter()
        with subprocess.Popen(
                [BINARY, "--setup-only"], stdout=subprocess.PIPE,
                text=True,
                preexec_fn=lambda: os.sched_setaffinity(0, {cpu})) as p:
            line = p.stdout.readline().strip()
            times.append(time.perf_counter() - t0)
            p.wait(timeout=60)
        if line != "ready" or p.returncode != 0:
            raise BenchError("set-up run failed")
    return times


def run_workload(workload, seed, seconds, trace, short=False, deadline=None):
    """Run the harness once; returns (result line dict, detail dict)."""
    tmp = os.path.join(BUILD_ROOT, "tmp")
    traces = os.path.join(BUILD_ROOT, "traces")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    setup = [] if trace else setup_seconds(SETUP_SPAWNS // 2)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--tmp-dir", tmp]
    if trace:
        cmd += ["--trace-out",
                os.path.join(traces, "%s-%d.json" % (workload, seed))]
    if short:
        cmd.append("--short")
    timeout = None if deadline is None else max(1, deadline - time.time())
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=timeout)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if p.returncode != 0:
        raise BenchError("harness exited with %d" % p.returncode)
    lines = p.stdout.strip().splitlines()
    if not lines:
        raise BenchError("harness printed no result")
    out = json.loads(lines[-1])
    metrics = out["metrics"]
    if not trace:
        setup += setup_seconds(SETUP_SPAWNS - len(setup))
        metrics = dict(setup_s={"value": statistics.median(setup),
                                "unit": "s"}, **metrics)
    result = {
        "correct": bool(out["correct"]),
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": metrics,
    }
    detail = {"detail": out["detail"], "provenance": out["provenance"]}
    return result, detail


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def self_test():
    """Short runs of every workload; checks names, units and outputs."""
    spec = load_spec()
    problems = []
    for w in spec["workloads"]:
        for trace, wanted in ((False, spec["end_to_end"]),
                              (True, spec["per_layer"])):
            name = "%s trace=%d" % (w["name"], int(trace))
            before = len(problems)
            result, _ = run_workload(w["name"], 1, 1, trace, short=True)
            got = result["metrics"]
            for m in wanted:
                have = got.get(m["name"])
                if have is None:
                    problems.append("%s: metric %s missing"
                                    % (name, m["name"]))
                elif have["unit"] != m["unit"]:
                    problems.append("%s: %s has unit %s, expected %s"
                                    % (name, m["name"], have["unit"],
                                       m["unit"]))
                elif not math.isfinite(have["value"]) or (
                        not trace and have["value"] <= 0):
                    problems.append("%s: %s = %r" % (name, m["name"],
                                                     have["value"]))
            extra = set(got) - {m["name"] for m in wanted}
            if extra:
                problems.append("%s: unexpected metrics %s"
                                % (name, sorted(extra)))
            if not result["correct"] or result["failed"]:
                problems.append("%s: %d of %d operations failed a check"
                                % (name, result["failed"],
                                   result["attempted"]))
            if trace and got.get("coverage", {}).get("value", 0) <= 0:
                problems.append(name + ": coverage not measured")
            log("self-test", name,
                "ok" if len(problems) == before else "FAILED")
    for p in problems:
        log("self-test:", p)
    print("self-test", "FAILED" if problems else "passed")
    return 1 if problems else 0


def report(seed, seconds):
    """Every metric of every workload, by name and unit."""
    failed = 0
    for w in load_spec()["workloads"]:
        for trace in (False, True):
            result, detail = run_workload(w["name"], seed, seconds, trace)
            print("%s trace=%d: %d of %d operations failed"
                  % (w["name"], int(trace), result["failed"],
                     result["attempted"]))
            groups = [("per-layer" if trace else "end-to-end",
                       result["metrics"])]
            if not trace:
                groups.append(("named", detail["detail"]))
            for kind, metrics in groups:
                for name, m in metrics.items():
                    print("  %-10s %-28s %.6g %s"
                          % (kind, name, m["value"], m["unit"]))
            failed += result["failed"] + (not result["correct"])
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--report", action="store_true")
    args = ap.parse_args()
    try:
        build()
        if args.self_test:
            return self_test()
        if args.report:
            return report(args.seed, args.seconds)
        if not args.workload:
            ap.error("--workload is required")
        # Timing starts after the build: the first run in a checkout
        # may spend minutes compiling.
        deadline = time.time() + RUN_DEADLINE_S
        result, detail = run_workload(args.workload, args.seed,
                                      args.seconds, bool(args.trace),
                                      deadline=deadline)
    except (BenchError, subprocess.SubprocessError, OSError,
            ValueError, KeyError) as e:
        log("error:", e)
        return 1
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
