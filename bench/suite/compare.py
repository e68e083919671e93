#!/usr/bin/env python3
"""Compare two sets of ccai_bench runs against the BENCHMARK.json bounds.

    # Run both checkouts, alternating which goes first, one seed per pair:
    python3 bench/suite/compare.py run --a <checkout A> --b <checkout B> \\
        --pairs 10 --out <dir> [--workloads xfer_bulk,llm_infer] [--trace]

    # Compare two recorded sets (JSON lines written by `run`):
    python3 bench/suite/compare.py diff <dir>/a.jsonl <dir>/b.jsonl

A is the baseline, B the change. For each workload and end-to-end
metric it prints both medians and quartiles, how many seed-paired runs
B won (ties count for neither), and a verdict. Every metric reads
"identical" when each seed pair matched. Simulated-time metrics
(SIM_METRICS) are exact for a seed, so they are judged pair by pair
with bound 0:

  worse       B is worse than A on at least one seed
  improved    B is better on at least one seed and worse on none
  unresolved  the sets share no seed

Host-time metrics are judged on medians against the BENCHMARK.json
bounds:

  worse       B's median is worse than A's by more than the bound, and
              A's runs agree among themselves to within the bound
  improved    B won at least 9 in 10 pairs and its median beats A's by
              more than the distance between A's quartiles
  unresolved  A's own spread is wider than the bound and B did not read
              better on every run
  unchanged   none of the above

It also compares error rates (failed / attempted); a run that printed
no result line counts as one failed attempt. When both sets hold traced
runs (--trace), every workload with a worse metric gets a table of its
per-layer medians, largest relative change first, so a failing gate
names the layer that moved.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent

# End-to-end metrics in simulated time, as kSimEndToEnd in ccai_bench.cc.
SIM_METRICS = {"latency_p50_ms", "latency_p90_ms", "ops_per_s",
               "secure_overhead_pct"}


def read_set(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines()
            if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worse_by(metric, a, b):
    """Relative change from a to b, positive when b is worse."""
    if a == 0:
        return 0.0 if b == a else float("inf")
    change = (b - a) / abs(a)
    return change if metric["better"] == "lower" else -change


def series(runs, workload, trace, name):
    """{seed: value} of one metric over one set's runs."""
    return {r["seed"]: r["result"]["metrics"][name]["value"]
            for r in runs
            if r["workload"] == workload and r["trace"] == trace
            and name in r["result"]["metrics"]}


def verdict(metric, a_by_seed, b_by_seed):
    a, b = list(a_by_seed.values()), list(b_by_seed.values())
    qa, qb = quartiles(a), quartiles(b)
    paired = [s for s in a_by_seed if s in b_by_seed]
    changes = [worse_by(metric, a_by_seed[s], b_by_seed[s]) for s in paired]
    wins = sum(c < 0 for c in changes)
    bound = metric["bound"]
    rel = worse_by(metric, qa[1], qb[1])
    spread = (qa[2] - qa[0]) / abs(qa[1]) if qa[1] else 0.0
    b_always_better = all(worse_by(metric, x, y) < 0 for x in a for y in b)
    b_always_worse = all(worse_by(metric, x, y) > 0 for x in a for y in b)
    if paired and all(c == 0 for c in changes):
        word = "identical"
    elif metric["name"] in SIM_METRICS:
        if not paired:
            word = "unresolved"
        elif any(c > 0 for c in changes):
            word = "worse"
        else:
            word = "improved"
    elif rel > bound and (spread <= bound or b_always_worse):
        word = "worse"
    elif (paired and wins >= 0.9 * len(paired)
          and -rel * abs(qa[1]) > qa[2] - qa[0]):
        word = "improved"
    elif spread > bound and not b_always_better:
        word = "unresolved"
    else:
        word = "unchanged"
    return qa, qb, rel, wins, len(paired), word


def fmt(q):
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def diff(a_runs, b_runs, spec):
    workloads = [w["name"] for w in spec["workloads"]]
    regressed = set()
    failed_gate = False
    print(f"{'workload':14} {'metric':22} {'A median [q1, q3]':36} "
          f"{'B median [q1, q3]':36} {'change':>8} {'wins':>6}  verdict")
    for w in workloads:
        if not any(r["workload"] == w for r in a_runs + b_runs):
            continue
        for m in spec["end_to_end"]:
            a = series(a_runs, w, 0, m["name"])
            b = series(b_runs, w, 0, m["name"])
            if not a or not b:
                continue
            qa, qb, rel, wins, pairs, word = verdict(m, a, b)
            if word == "worse":
                regressed.add(w)
            failed_gate |= word in ("worse", "unresolved")
            print(f"{w:14} {m['name']:22} {fmt(qa):36} {fmt(qb):36} "
                  f"{rel * 100:+7.2f}% {wins:>3}/{pairs:<2}  {word}")
        rates = []
        for runs in (a_runs, b_runs):
            mine = [r["result"] for r in runs if r["workload"] == w]
            attempted = sum(r["attempted"] for r in mine)
            failed = sum(r["failed"] for r in mine)
            rates.append(failed / attempted if attempted else 0.0)
        incorrect = [r["seed"] for r in b_runs
                     if r["workload"] == w and not r["result"]["correct"]]
        word = "worse" if rates[1] > rates[0] or incorrect else "unchanged"
        failed_gate |= word == "worse"
        print(f"{w:14} {'error_rate':22} {rates[0]:<36.6g} {rates[1]:<36.6g} "
              f"{'':8} {'':6}  {word}"
              + (f" (incorrect seeds {incorrect})" if incorrect else ""))

    for w in sorted(regressed):
        rows = []
        for m in spec["per_layer"]:
            a = list(series(a_runs, w, 1, m["name"]).values())
            b = list(series(b_runs, w, 1, m["name"]).values())
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            rel = (mb - ma) / abs(ma) if ma else (0.0 if mb == ma
                                                  else float("inf"))
            rows.append((abs(rel), m["name"], ma, mb, rel, m["unit"]))
        if not rows:
            print(f"\n{w}: regressed, but no traced runs to name a layer")
            continue
        print(f"\n{w}: per-layer medians, largest change first")
        for _, name, ma, mb, rel, unit in sorted(rows, reverse=True)[:15]:
            print(f"  {name:34} {ma:14.6g} -> {mb:<14.6g} {unit:6} "
                  f"{rel * 100:+8.2f}%")
    return failed_gate


def parse_result(stdout):
    """The result object on the last line of a run's stdout, or None."""
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def run_side(checkout, workload, seed, seconds, trace):
    cmd = ["python3", "bench/suite/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    result = parse_result(done.stdout)
    if result is None:
        print(f"{checkout}: {workload} seed {seed} printed no result "
              f"(exit {done.returncode}); counted as failed",
              file=sys.stderr)
        result = {"correct": False, "attempted": 1, "failed": 1,
                  "metrics": {}}
    return {"workload": workload, "seed": seed, "trace": trace,
            "result": result}


def run(args, spec):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = spec["run_seconds"]
    sides = {"a": Path(args.a).resolve(), "b": Path(args.b).resolve()}
    files = {k: open(out / f"{k}.jsonl", "w") for k in sides}
    traces = [0, 1] if args.trace else [0]
    for pair in range(args.pairs):
        order = ["a", "b"] if pair % 2 == 0 else ["b", "a"]
        for w in workloads:
            for trace in traces:
                if trace and pair > 0:
                    continue  # one traced run per side names the layers
                for side in order:
                    rec = run_side(sides[side], w, pair + 1, seconds, trace)
                    files[side].write(json.dumps(rec) + "\n")
                    files[side].flush()
                    print(f"pair {pair + 1} {side} {w} trace={trace} "
                          f"correct={rec['result']['correct']}",
                          file=sys.stderr)
    for f in files.values():
        f.close()
    return read_set(out / "a.jsonl"), read_set(out / "b.jsonl")


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run both checkouts, then compare")
    r.add_argument("--a", required=True, help="baseline checkout")
    r.add_argument("--b", required=True, help="changed checkout")
    r.add_argument("--pairs", type=int, default=10)
    r.add_argument("--workloads")
    r.add_argument("--trace", action="store_true",
                   help="add one traced run per workload and side")
    r.add_argument("--out", required=True)
    d = sub.add_parser("diff", help="compare two recorded sets")
    d.add_argument("a")
    d.add_argument("b")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.cmd == "run":
        a_runs, b_runs = run(args, spec)
    else:
        a_runs, b_runs = read_set(args.a), read_set(args.b)
    sys.exit(1 if diff(a_runs, b_runs, spec) else 0)


if __name__ == "__main__":
    main()
