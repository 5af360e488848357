#!/usr/bin/env python3
"""Time-to-verdict benchmark for ttstart (see BENCHMARK.json).

Builds perfbench/ (the ttstart libraries from src/ plus the ttbench program)
into $CARGO_TARGET_DIR, default .bench_build, then runs one workload:

    python3 perfbench/run.py --workload fig6-n5-none --seed 0 --seconds 15 --trace 0

--trace 0 times closed-loop core::verify calls and reports the end-to-end
metrics; --trace 1 is the traced run that reports the per-layer metrics and
writes a Chrome trace under <build>/traces/. The last stdout line is the JSON
result; the exit code is non-zero when any call got a wrong verdict or count.

Without --workload every workload runs in turn (one command, all metrics).
--self-test runs every workload kind at n = 3: it checks that each named
metric is printed with its unit and that a deliberately wrong expected count
is reported as a failure.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Set-up is timed in this many separate process launches (the median is
# reported): one launch takes a few milliseconds, so one sample is noise.
SETUP_LAUNCHES = 5
CALL_TIMEOUT_S = 170
# Spans the self-test requires in each workload kind's Chrome trace.
SPANS_BY_PREFIX = {
    "fig6-n5-liveness": {"bench.engine", "owcty.expand", "owcty.drain", "owcty.trim_round"},
    "fig6": {"bench.engine", "bfs.expand", "bfs.drain"},
    "kind": {"bench.engine", "kind.depth", "kind.diameter"},
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    """Configures (once) and builds ttbench; returns its path or None."""
    out = sys.stderr
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        r = subprocess.run(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=out, stderr=out)
        if r.returncode != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    r = subprocess.run(["cmake", "--build", bdir, "--target", "ttbench", "-j", jobs],
                       stdout=out, stderr=out)
    exe = os.path.join(bdir, "ttbench")
    return exe if r.returncode == 0 and os.path.exists(exe) else None


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"  # not a git checkout; source_digest still pins the sources
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def source_digest():
    """sha256 over the sources the benchmark builds (src/ and perfbench/)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def launch(cmd, capture):
    """Runs ttbench with the launch time as --spawn-ns; returns (code, stdout lines)."""
    full = cmd + ["--spawn-ns", str(time.monotonic_ns())]
    try:
        r = subprocess.run(full, stdout=subprocess.PIPE, text=True, timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("ttbench timed out: " + " ".join(cmd))
        return 124, []
    lines = r.stdout.splitlines()
    if not capture:
        for line in lines[:-1]:
            print(line, flush=True)
    return r.returncode, lines


def last_json(lines):
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def run_workload(exe, name, seed, seconds, trace, extra=(), capture=False):
    """One benchmark run; returns (exit code, result dict or None)."""
    base = [exe, "run", "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--git-sha", git_sha(), "--source-digest",
            source_digest()] + list(extra)
    if trace:
        tdir = os.path.join(os.path.dirname(exe), "traces")
        os.makedirs(tdir, exist_ok=True)
        base += ["--chrome-out", os.path.join(tdir, "%s-seed%d.json" % (name, seed))]
    code, lines = launch(base, capture)
    result = last_json(lines)
    if result is None:
        return code or 1, None
    if not trace:
        setup = [result["metrics"]["setup_s"]["value"]]
        setup_cmd = [exe, "setup", "--workload", name, "--seed", str(seed)] + [
            a for a in extra if a != "--wrong-expected"]
        for _ in range(SETUP_LAUNCHES - 1):
            scode, slines = launch(setup_cmd, capture=True)
            s = last_json(slines)
            if scode != 0 or s is None:
                return scode or 1, None
            setup.append(s["setup_s"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setup)
        if not capture:
            print("metric setup_s %r s (median of %d launches)" % (statistics.median(setup),
                                                                   len(setup)), flush=True)
    return code, result


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def self_test(exe):
    """n = 3 run of every workload kind, traced and untraced, plus a
    wrong-expected run that must fail. Returns the number of problems."""
    spec = benchmark_spec()
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = 0

    def fail(msg):
        nonlocal problems
        problems += 1
        log("self-test FAIL: " + msg)

    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            code, res = run_workload(exe, name, 1, 0.2, trace, ["--n", "3"], capture=True)
            if code != 0 or res is None or not res["correct"] or res["failed"] != 0:
                fail("%s trace=%d: exit %d, result %r" % (name, trace, code, res))
                continue
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want[trace]:
                fail("%s trace=%d: metrics %r, expected %r" % (name, trace, got, want[trace]))
            if trace:
                path = os.path.join(os.path.dirname(exe), "traces", "%s-seed1.json" % name)
                with open(path) as f:
                    doc = json.load(f)
                spans = {e["name"] for e in doc["traceEvents"] if e.get("ph") == "X"}
                need = SPANS_BY_PREFIX[next(p for p in SPANS_BY_PREFIX if name.startswith(p))]
                if not need <= spans or "git_sha" not in doc.get("otherData", {}):
                    fail("%s: Chrome trace lacks %r or provenance" % (name, need - spans))
        code, res = run_workload(exe, name, 1, 0.2, 0, ["--n", "3", "--wrong-expected"],
                                 capture=True)
        if code == 0 or res is None or res["correct"] or res["failed"] < 1:
            fail("%s: a wrong expected count was not reported (exit %d, %r)" % (name, code, res))
        log("self-test %s: done" % name)
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    exe = build(build_dir())
    if exe is None:
        log("perfbench: build failed")
        return 1
    if args.self_test:
        problems = self_test(exe)
        log("self-test: %s" % ("ok" if problems == 0 else "%d problem(s)" % problems))
        return 0 if problems == 0 else 1

    spec = benchmark_spec() if args.workload is None or args.seconds is None else None
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload is not None:
        code, res = run_workload(exe, args.workload, args.seed, seconds, args.trace)
        if res is None:
            return code or 1
        print(json.dumps(res), flush=True)
        return code

    worst = 0
    for w in spec["workloads"]:
        code, res = run_workload(exe, w["name"], args.seed, seconds, args.trace)
        worst = worst or code or (1 if res is None else 0)
        if res is not None:
            for k, v in res["metrics"].items():
                print("%-18s %-26s %.6g %s" % (w["name"], k, v["value"], v["unit"]), flush=True)
            print("%-18s %-26s %.6g ratio" % (w["name"], "fail_ratio",
                                               res["failed"] / res["attempted"]), flush=True)
    return worst


if __name__ == "__main__":
    sys.exit(main())
