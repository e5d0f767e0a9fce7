#!/usr/bin/env python3
"""The tsss benchmark: builds the library from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The benchmark is its own CMake package (perfbench/CMakeLists.txt) that
compiles ../src in Release mode into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) and links tsss_perfbench against it. Scratch index
files and span traces go to .bench_work/.

Workloads (see workloads.cc and BENCHMARK.json for why each exists):
    range_pool_miss   served range queries with a buffer pool 1/8 of the index
    mixed_warm        served 70/30 range/kNN mix over a fully cached index

Every answer is checked against the sequential-scan oracle. Every run ends by
adding series, checkpointing and reopening the index; the whole query pool
must give the same answers before the close and after the reopen. The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics of an untraced run (--trace 0), or the
per-layer metrics of a traced run (--trace 1). Before it, an "env " line
stamps nproc, build type, compiler, corpus size, seeds and commit, and a
"# host steal" line gives the share of CPU time the hypervisor gave to other
guests during the run.

--self-test runs every workload at a tiny scale, checks that each metric of
BENCHMARK.json appears with its unit, that a deliberately wrong answer is
reported as a failure, and that a layer span left out of the traced composed
query breaks the traced identity.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_work")
RUN_TIMEOUT_S = 175
TINY = ["--companies", "24", "--values", "200", "--queries", "6"]
SOURCE_DIRS = ("src", "perfbench", "bench")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("error: library sources (src/) not found next to perfbench/")
        sys.exit(1)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", PACKAGE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("error: build step failed:", " ".join(step))
            sys.exit(1)
    return os.path.join(build_dir, "tsss_perfbench")


def source_digest():
    """A digest of the sources the benchmark builds and runs."""
    digest = hashlib.sha256()
    for top in SOURCE_DIRS:
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def git(*args):
    """Output of a git command in ROOT, or None when git cannot answer."""
    try:
        done = subprocess.run(["git", "-C", ROOT] + list(args),
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout if done.returncode == 0 else None


def commit_id():
    """The git commit, with the source digest added when the sources differ
    from it, or the digest alone when there is no git."""
    head = (git("rev-parse", "HEAD") or "").strip()
    if not head:
        return source_digest()
    dirty = git("status", "--porcelain", "--", *SOURCE_DIRS)
    if dirty is None or dirty.strip():
        return head + "+dirty:" + source_digest()
    return head


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_binary(binary, args):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    try:
        done = subprocess.run([binary, "--work-dir", WORK_DIR] + args,
                              cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("error: benchmark run exceeded", RUN_TIMEOUT_S, "s")
        return 1, []
    return done.returncode, done.stdout.splitlines()


def check_result(lines, metrics_spec):
    """Validates the final JSON line against the metric list; returns it."""
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys are %s" % sorted(result))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        raise ValueError("failed must be a whole number >= 0")
    want = {m["name"]: m["unit"] for m in metrics_spec}
    got = result["metrics"]
    if set(got) != set(want):
        raise ValueError("metrics differ from BENCHMARK.json: missing %s, extra %s"
                         % (sorted(set(want) - set(got)),
                            sorted(set(got) - set(want))))
    for name, unit in want.items():
        value = got[name].get("value")
        if got[name].get("unit") != unit:
            raise ValueError("%s has unit %r, want %r"
                             % (name, got[name].get("unit"), unit))
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not math.isfinite(value):
            raise ValueError("%s is not a finite number" % name)
    return result


def workload_names():
    return [w["name"] for w in spec()["workloads"]]


def metrics_spec_for(trace):
    return spec()["per_layer" if trace else "end_to_end"]


def cpu_ticks():
    """Machine-wide CPU tick counters from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def run(args):
    binary = build()
    os.makedirs(WORK_DIR, exist_ok=True)
    before = cpu_ticks()
    code, lines = run_binary(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--commit", commit_id()])
    after = cpu_ticks()
    for line in lines[:-1]:
        print(line)
    if before and after and len(after) > 7 and sum(after) > sum(before):
        # Time the hypervisor gave to other guests: on a shared machine this
        # explains most run-to-run spread of the timings.
        print("# host steal %.3f of CPU time during the run"
              % ((after[7] - before[7]) / (sum(after) - sum(before))))
    if code != 0:
        log("error: benchmark exited with code", code)
        return code
    try:
        check_result(lines, metrics_spec_for(args.trace))
    except ValueError as e:
        log("error: malformed result:", e)
        return 1
    print(lines[-1], flush=True)
    return 0


def self_test():
    binary = build()
    os.makedirs(WORK_DIR, exist_ok=True)
    failures = []
    for workload in workload_names():
        for trace in (0, 1):
            base = ["--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", str(trace)] + TINY
            code, lines = run_binary(binary, base)
            try:
                if code != 0:
                    raise ValueError("exit code %d" % code)
                result = check_result(lines, metrics_spec_for(trace))
                if not result["correct"] or result["failed"] != 0:
                    raise ValueError("error_rate is not 0: %s"
                                     % [l for l in lines if "failure" in l])
                if not any(l.startswith("metric error_rate ") for l in lines):
                    raise ValueError("error_rate is not printed")
            except ValueError as e:
                failures.append("%s trace %d: %s" % (workload, trace, e))
        code, lines = run_binary(binary, base + ["--inject-wrong-answer"])
        try:
            result = check_result(lines, metrics_spec_for(1))
            if result["correct"] or result["failed"] < 1:
                failures.append("%s: a wrong answer was not counted" % workload)
        except ValueError as e:
            failures.append("%s with a wrong answer: %s" % (workload, e))
        code, lines = run_binary(
            binary, base + ["--drop-span", "index.line_query"])
        try:
            result = check_result(lines, metrics_spec_for(1))
            if result["correct"] or not any(
                    "layer self times" in l for l in lines):
                failures.append("%s: a missing layer span was not caught"
                                % workload)
        except ValueError as e:
            failures.append("%s with a missing span: %s" % (workload, e))
        log("self-test:", workload, "done")
    for f in failures:
        log("self-test FAILED:", f)
    if not failures:
        print("self-test passed")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    names = workload_names()
    if args.workload not in names:
        parser.error("--workload must be one of %s" % ", ".join(names))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
