#!/usr/bin/env python3
"""Build and run one workload of the FlashTier benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package (release
profile; target directory `$CARGO_TARGET_DIR`, default `.bench_build`),
runs the workload, and prints two JSON lines on standard output:

1. `{"record": {...}}` - everything the run measured, with the host
   fingerprint and run details (nproc, CPU model, kernel, rustc version,
   git commit, seed, the sample count behind each metric, every
   correctness check, and for a traced run the layer table);
2. `{"correct", "attempted", "failed", "metrics"}` - the result, with the
   end-to-end metrics of BENCHMARK.json (`--trace 0`) or its per-layer
   metrics (`--trace 1`), each as `{"value", "unit"}`.

Exits 0 when every correctness check held, 1 when one failed or the run
did not finish, and 2 on a usage error or when the repository sources are
missing. Traced runs also write their spans to `perfbench/out/`.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end well inside three minutes; the build is not counted.
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def capture(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint():
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model(),
        "kernel": platform.release(),
        "rustc": capture(["rustc", "--version"]),
        "git_commit": capture(["git", "rev-parse", "HEAD"]),
    }


def declared_metrics(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]


def build(target_dir):
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    # Cargo's output goes to stderr: stdout carries only the two JSON lines.
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(target_dir, "release", "flashtier-perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=["replay-mail", "replay-usr-hot"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if not (0 <= args.seed < 2**64):
        fail("--seed must fit in 64 bits", 2)

    for needed in ("Cargo.toml", "crates", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found under {ROOT}: run from a full checkout of the repository", 2)

    target_dir = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target_dir):
        target_dir = os.path.join(ROOT, target_dir)
    binary = build(target_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(HERE, "out")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"benchmark exited {done.returncode} without a record")
    record = json.loads(lines[-1])

    traced = bool(args.trace)
    names = declared_metrics(traced)
    produced = record["metrics"]
    missing = [n for n in names if n not in produced]
    extra = [n for n in produced if n not in names]
    if missing or extra:
        record["checks"].append({
            "name": "metrics match BENCHMARK.json",
            "ok": False,
            "detail": f"missing {missing}, undeclared {extra}",
        })
        record["correct"] = False
    correct = bool(record["correct"]) and done.returncode == 0

    record["host"] = fingerprint()
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {n: {"value": produced[n]["value"], "unit": produced[n]["unit"]}
                    for n in names if n in produced},
    }))
    if not correct:
        for c in record["checks"]:
            if not c["ok"]:
                print(f"perfbench: check failed: {c['name']}: {c['detail']}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
