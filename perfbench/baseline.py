#!/usr/bin/env python3
"""Run the benchmark over many seeds and summarize it.

    python3 perfbench/baseline.py [--workloads a,b] [--seeds 101-110]
                                  [--traced-seed 101] [--out perfbench/baseline.json]
                                  [--against earlier.json]

For each workload, makes one untraced run per seed (`perfbench/run.py`
with BENCHMARK.json's `run_seconds`) and, unless `--traced-seed none`, one
traced run. Prints, per end-to-end metric, the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread (quartile distance
over the median) against the metric's bound, and with `--out` writes all
of it, with every run's record and the traced runs' layer tables, as JSON.

With `--against`, an earlier output of this script (the parent commit's,
or the same code's for a repeatability check), it also compares: each
metric's median may not be worse than the earlier median by more than the
metric's bound, and each simulated metric (deterministic for a seed) must
equal the earlier value exactly on every seed both sets ran, since the
bound is sized for the spread across seeds, which a same-seed comparison
never sees.

Exits 1 if a run was not correct, a spread is over its bound (set-up
time's spread is printed but not gated, as in the benchmark's acceptance
rule), or a comparison failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        return None, {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def slim(record):
    """A run record without its list of passed checks (kept as a count)."""
    if record is None:
        return None
    out = {k: v for k, v in record.items() if k != "checks"}
    out["checks_passed"] = sum(1 for c in record["checks"] if c["ok"])
    out["checks_failed"] = [c for c in record["checks"] if not c["ok"]]
    return out


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"), "values": values}


# End-to-end metrics that are a pure function of the seed: the simulated
# results of a replay, which every run checks to be bit-identical round to
# round and traced to untraced.
DETERMINISTIC = {"wt_sim_iops", "wb_sim_iops", "native_sim_iops", "wb_write_amp"}

# End-to-end metrics whose spread over seeds is printed but does not fail
# the set, as in the benchmark's acceptance rule: set-up time. Its median
# is still compared with `--against`. Set-up takes 10-30 ms, and on a
# shared VM the host's state moves it by half within one run.
SPREAD_NOT_GATED = {"setup_s"}


def compare(result, earlier, spec):
    """Prints how `result` moved from `earlier`; returns False on a failure."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    ok = True
    for w, entry in result["workloads"].items():
        old = earlier["workloads"].get(w)
        if old is None:
            print(f"== {w}: not in the earlier set")
            continue
        print(f"== {w} against the earlier set")
        for name, s in entry["metrics"].items():
            o = old["metrics"].get(name)
            if o is None:
                continue
            change = s["median"] / o["median"] - 1.0 if o["median"] else float("inf")
            worse = -change if better[name] == "higher" else change
            over = worse > s["bound"]
            line = f"  {name:24s} median {change:+.4f} (worse by {worse:+.4f}, bound {s['bound']})"
            if name in DETERMINISTIC:
                old_by_seed = dict(zip(earlier["seeds"], o["values"]))
                diffs = [seed for seed, v in zip(result["seeds"], s["values"])
                         if seed in old_by_seed and old_by_seed[seed] != v]
                shared = sum(1 for seed in result["seeds"] if seed in old_by_seed)
                line += f"; same-seed values differ on {len(diffs)} of {shared} seeds"
                over = over or bool(diffs)
            ok = ok and not over
            print(line + (" FAIL" if over else ""))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=None, help="comma-separated (default: all)")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("101-110"))
    ap.add_argument("--traced-seed", default="101", help="seed of the traced run, or 'none'")
    ap.add_argument("--out", default=None)
    ap.add_argument("--against", default=None, help="an earlier output of this script")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    result = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for w in workloads:
        records, results = [], []
        for seed in args.seeds:
            rec, res = run(w, seed, seconds, 0)
            records.append(slim(rec))
            results.append(res)
            if not res["correct"]:
                ok = False
                print(f"{w} seed {seed}: NOT CORRECT", file=sys.stderr)
        entry = {"metrics": {}, "attempted": [r["attempted"] for r in results],
                 "failed": [r["failed"] for r in results], "records": records}
        print(f"== {w} ({len(args.seeds)} seeds, {seconds} s)")
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
            if len(vals) < 2:
                ok = False
                print(f"  {name}: too few values")
                continue
            s = summarize(vals)
            s["bound"] = bound
            s["unit"] = results[0]["metrics"][name]["unit"]
            entry["metrics"][name] = s
            over = s["spread"] > bound
            if name not in SPREAD_NOT_GATED:
                ok = ok and not over
            flag = ("OVER (not gated)" if name in SPREAD_NOT_GATED else "OVER") if over else ""
            print(f"  {name:22s} median {s['median']:14.4f} q1 {s['q1']:14.4f} q3 {s['q3']:14.4f} "
                  f"spread {s['spread']:.4f} bound {bound} {flag}")
        if args.traced_seed != "none":
            rec, res = run(w, int(args.traced_seed), seconds, 1)
            ok = ok and res["correct"]
            entry["traced"] = {"seed": int(args.traced_seed), "correct": res["correct"],
                               "metrics": res["metrics"],
                               "layer_table": rec.get("layer_table") if rec else None,
                               "record": slim(rec)}
            for row in (rec or {}).get("layer_table", []):
                print("  layers", json.dumps(row))
        result["workloads"][w] = entry
    if args.out:
        with open(args.out, "w") as f:
            json.dump(result, f, indent=1)
            f.write("\n")
    if args.against:
        with open(args.against) as f:
            ok = compare(result, json.load(f), spec) and ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
