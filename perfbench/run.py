#!/usr/bin/env python3
"""Rekey wire benchmark: builds librekey and the benchmark binary, runs one
workload, checks its outputs and prints one JSON result as the last line.

Run from the repository root:

    python3 perfbench/run.py --workload steady-2e15 --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones (and
writes layer spans as JSON lines under .bench_build/perfbench-out/). Every
run records the digest of each session's deterministic protocol counters per
(workload, seed, session); a later run with the same seed and another digest
is reported as incorrect. See perfbench/NOTES.md for the workloads and caveats.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("steady-2e15", "bigtree-2e20", "lossy-replicated-2e15")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
OUT_DIR = os.path.join(".bench_build", "perfbench-out")
DIGESTS = os.path.join(".bench_build", "perfbench-digests.json")
# The benchmark binary gets at most this long, so a run ends within 180 s.
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(bench_dir):
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", bench_dir, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    made = subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                          stdout=sys.stderr, stderr=sys.stderr)
    return made.returncode == 0


def check_digests(workload, seed, digests):
    """True unless an earlier run with this seed saw other counters in one of
    its sessions (session k of every run with one seed has the same inputs)."""
    known = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS) as f:
            known = json.load(f)
    same = True
    for session, digest in enumerate(digests):
        key = "%s:%d:%d" % (workload, seed, session)
        same = same and known.setdefault(key, digest) == digest
    tmp = DIGESTS + ".tmp"
    with open(tmp, "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)
    os.replace(tmp, DIGESTS)
    return same


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        log("perfbench: --seed must be >= 0 and --seconds >= 1")
        return 2

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    if not os.path.exists(os.path.join(bench_dir, "..", "src",
                                       "CMakeLists.txt")):
        log("perfbench: librekey sources (src/) not found next to",
            bench_dir)
        return 2
    if not build(bench_dir):
        log("perfbench: build failed")
        return 1

    os.makedirs(OUT_DIR, exist_ok=True)
    # The benchmark fixes every setting itself; REKEY_* overrides
    # (threads, pinning, SIMD path, wire backend, tracing) would change
    # what is measured.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REKEY_")}
    cmd = [os.path.join(BUILD_DIR, "rekey_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    if proc.returncode != 0:
        log("perfbench: benchmark exited with code %d" % proc.returncode)
        return 1

    lines = out.decode().splitlines()
    if not lines:
        log("perfbench: benchmark printed nothing")
        return 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    correct = bool(result["correct"])
    if not check_digests(args.workload, args.seed, result["digests"]):
        print("# CHECK FAILED: protocol counters differ from an earlier run "
              "with seed %d" % args.seed)
        correct = False
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": result["metrics"],
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
