#!/usr/bin/env python3
"""Check a bench result, a metrics snapshot or a trace.

Usage:
    check_bench.py FILE [BASELINE]

FILE's own content picks the check:

  groups       metrics snapshot: validates against
               schemas/metrics.schema.json and has metric groups.
  traceEvents  Chrome trace: 'B'/'E' spans balance on every track.
  workload     BENCH_*.json result: schema_version 2, the workload's
               schema under schemas/ when it has one, and the
               workload's structural and ledger checks below.

Serve rows (serve_fleet and serve_chaos) obey the request-ledger
conservation laws for any seed: arrivals = admitted + shed_on_admit,
issued = arrivals + retries, admitted = completed + shed_on_deadline,
slo_misses <= completed, and ordered TTFT/e2e percentiles.

BASELINE, a checked-in result of the same workload, adds a row-by-row
diff: exact columns must match, ceiling and floor columns must stay
within a factor of the baseline.

Gates a bench binary already enforces through its exit status (its
PASS/FAIL booleans and speedup targets) are not re-checked here.
Exits 1 with a message on the first failure, 2 on bad usage.
"""

import json
import sys
from pathlib import Path

SCHEMAS = Path(__file__).resolve().parent.parent / "schemas"


def require(ok, message):
    if not ok:
        raise ValueError(message)


def load(path):
    with open(path) as f:
        return json.load(f)


TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "integer": int,
    "number": (int, float),
    "null": type(None),
}


def validate(instance, schema, path="$"):
    """The JSON Schema subset the checked-in schemas use."""
    expected = schema.get("type")
    if expected is not None:
        ok = isinstance(instance, TYPES[expected])
        # bool is a subclass of int in Python; keep them distinct.
        if expected in ("integer", "number") and isinstance(instance, bool):
            ok = False
        require(ok, f"{path}: expected {expected}, "
                    f"got {type(instance).__name__}")
    if "const" in schema:
        require(instance == schema["const"],
                f"{path}: expected {schema['const']!r}, got {instance!r}")
    if "enum" in schema:
        require(instance in schema["enum"],
                f"{path}: {instance!r} not in {schema['enum']}")
    if isinstance(instance, (int, float)):
        if "minimum" in schema:
            require(instance >= schema["minimum"],
                    f"{path}: {instance} < minimum {schema['minimum']}")
        if "exclusiveMinimum" in schema:
            require(instance > schema["exclusiveMinimum"],
                    f"{path}: {instance} <= exclusiveMinimum "
                    f"{schema['exclusiveMinimum']}")
    if isinstance(instance, str):
        require(len(instance) >= schema.get("minLength", 0),
                f"{path}: shorter than minLength {schema.get('minLength')}")
    if isinstance(instance, list):
        require(len(instance) >= schema.get("minItems", 0),
                f"{path}: fewer than minItems {schema.get('minItems')}")
        if isinstance(schema.get("items"), dict):
            for i, value in enumerate(instance):
                validate(value, schema["items"], f"{path}[{i}]")
    if isinstance(instance, dict):
        for key in schema.get("required", []):
            require(key in instance, f"{path}: missing required '{key}'")
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties")
        for key, value in instance.items():
            if key in props:
                validate(value, props[key], f"{path}.{key}")
            elif isinstance(extra, dict):
                validate(value, extra, f"{path}.{key}")


def check_metrics(doc):
    validate(doc, load(SCHEMAS / "metrics.schema.json"))
    require(doc["groups"], "metrics snapshot has no metric groups")
    return f"{len(doc['groups'])} groups, " \
           f"sim_now_ticks={doc['sim_now_ticks']}"


def check_trace(doc):
    events = doc["traceEvents"]
    require(isinstance(events, list) and events, "trace has no events")
    depth = {}
    for ev in events:
        tid = ev.get("tid")
        if ev.get("ph") == "B":
            depth[tid] = depth.get(tid, 0) + 1
        elif ev.get("ph") == "E":
            depth[tid] = depth.get(tid, 0) - 1
            require(depth[tid] >= 0, f"trace: 'E' without 'B' on tid "
                                     f"{tid} ({ev.get('name')})")
    unbalanced = {t: d for t, d in depth.items() if d}
    require(not unbalanced, f"trace: unbalanced B/E spans: {unbalanced}")
    return f"{len(events)} events, B/E balanced"


def check_histogram(hist, label):
    if hist["count"] > 0:
        require(hist["min"] <= hist["p50"] <= hist["p99"] <= hist["max"],
                f"{label}: percentiles out of order ({hist})")


LEDGER_LAWS = (
    ("arrivals", ("admitted", "shed_on_admit")),
    ("issued", ("arrivals", "retries")),
    ("admitted", ("completed", "shed_on_deadline")),
)


def check_ledger(row, label):
    """Seed-independent conservation laws of one serve row."""
    for total, parts in LEDGER_LAWS:
        require(row[total] == sum(row[p] for p in parts),
                f"{label}: {total} {row[total]} != "
                + " + ".join(f"{p} {row[p]}" for p in parts))
    require(row["slo_misses"] <= row["completed"],
            f"{label}: slo_misses {row['slo_misses']} > completed "
            f"{row['completed']}")
    for prefix in ("ttft", "e2e"):
        p = [row[f"{prefix}_p{q}_s"] for q in (50, 95, 99)]
        require(0 <= p[0] <= p[1] <= p[2],
                f"{label}: {prefix} percentiles out of order {p}")


def check_recovery(bench):
    rows = bench["chaos"]
    require(rows, "no chaos scenarios recorded")
    for row in rows:
        label = f"chaos[{row['scenario']}]"
        require(row["crashes_injected"] == 0 or row["episodes"] > 0,
                f"{label}: crashes injected but no recovery episode")
        check_histogram(row["detect_latency_ticks"], f"{label}.detect")
        check_histogram(row["recovery_latency_ticks"], f"{label}.recovery")
        require(row["detect_latency_ticks"]["count"] == row["episodes"],
                f"{label}: detect latency count != episodes "
                f"{row['episodes']}")
    require(any(r["crashes_injected"] > 0 for r in rows),
            "no chaos scenario injected a crash")
    return f"{len(rows)} chaos scenarios"


def check_pipeline(bench):
    rows = bench["sweep"]
    require(rows, "no sweep rows recorded")
    for row in rows:
        label = f"sweep[{row['crypto_threads']}]"
        for key in ("h2d_prepare_ticks", "d2h_collect_ticks",
                    "meta_ring_occupancy", "queue_wait_ns"):
            check_histogram(row[key], f"{label}.{key}")
        require(row["meta_ring_occupancy"]["count"] > 0,
                f"{label}: completion ring never sampled")
    return f"{len(rows)} widths"


def check_serve_fleet(bench):
    gate = bench["kernel_gate"]
    require(gate, "no kernel_gate rows recorded")
    for row in gate:
        label = f"kernel_gate[{row['tenants']}]"
        require(row["legacy_dispatched"] > 0 and row["wheel_dispatched"] > 0,
                f"{label}: a kernel dispatched nothing")
        require(row["wheel_dispatched"] < row["legacy_dispatched"],
                f"{label}: wheel dispatched {row['wheel_dispatched']} >= "
                f"legacy {row['legacy_dispatched']}: stale no-ops "
                "not elided")
        require(row["speedup"] > 0, f"{label}: non-positive speedup")
    serve = bench["serve"]
    require(serve, "no serve rows recorded")
    for row in serve:
        label = f"serve[{row['tenants']}]"
        require(row["issued"] > 0, f"{label}: no requests issued")
        require(row["events_dispatched"] > 0,
                f"{label}: no events dispatched")
        check_ledger(row, label)
    return f"{len(gate)} kernel-gate rows, {len(serve)} serve rows"


def chaos_label(row):
    return (f"sweep[{row['overload_factor']}x "
            f"{'ctl' if row['controlled'] else 'raw'}"
            f"{'+chaos' if row['chaos'] else ''}]")


def check_serve_chaos(bench):
    rows = bench["sweep"]
    for row in rows:
        label = chaos_label(row)
        check_ledger(row, label)
        if row["chaos"]:
            require(row["crashes"] >= 1, f"{label}: injected no crash")
            require(row["rerouted"] >= 1, f"{label}: displaced no work")
        else:
            require(row["crashes"] == 0,
                    f"{label}: {row['crashes']} crashes without chaos")
    require(any(r["chaos"] for r in rows), "no chaos rows in sweep")
    return f"{len(rows)} sweep rows, ledger balanced"


def check_backends(bench):
    backends = {b["backend"]: b for b in bench["backends"]}
    require(set(backends) == {"ccai", "h100cc", "acai"},
            f"backends {sorted(backends)} != acai, ccai, h100cc")
    labels = {n: [r["label"] for r in b["rows"]]
              for n, b in backends.items()}
    require(len({tuple(v) for v in labels.values()}) == 1,
            f"backends ran different row sets: {labels}")
    require(labels["ccai"], "no comparison rows recorded")
    for name, b in backends.items():
        for row in b["rows"]:
            label = f"{name}[{row['label']}]"
            van, sec = row["vanilla_e2e_s"], row["secure_e2e_s"]
            require(van > 0, f"{label}: non-positive vanilla E2E")
            pct = 100.0 * (sec - van) / van
            require(abs(pct - row["e2e_overhead_pct"]) <= 0.05,
                    f"{label}: e2e_overhead_pct "
                    f"{row['e2e_overhead_pct']:.3f} != {pct:.3f}")
    means = {n: b["mean_e2e_overhead_pct"] for n, b in backends.items()}
    require(min(means.values()) >= 0,
            f"a protected run beat vanilla: {means}")
    require(means["ccai"] < min(means["h100cc"], means["acai"]),
            f"ccai mean overhead is not the lowest: {means}")
    return ", ".join(f"{n} {means[n]:.2f}%" for n in sorted(means))


def diff_rows(cur_rows, base_rows, key, exact=(), ceiling=None,
              floor=None):
    """Match rows on key(row); every baseline row must be present.
    Returns the regressions; bounded columns are printed."""
    cur = {key(r): r for r in cur_rows}
    regressions = []
    for base in sorted(base_rows, key=key):
        k = key(base)
        require(k in cur, f"row {k} in baseline but missing from run")
        row = cur[k]
        for col in exact:
            if row[col] != base[col]:
                regressions.append(f"row {k}: {col} {row[col]!r} != "
                                   f"baseline {base[col]!r}")
        bounds = [(c, f, "ceiling") for c, f in (ceiling or {}).items()]
        bounds += [(c, f, "floor") for c, f in (floor or {}).items()]
        for col, factor, kind in bounds:
            ratio = row[col] / base[col] if base[col] else 1.0
            print(f"  row {k}: {col} {row[col]:.6g} = {ratio:.0%} of "
                  f"baseline ({kind} {factor:.0%})")
            out = ratio > factor if kind == "ceiling" else ratio < factor
            if out:
                regressions.append(f"row {k}: {col} at {ratio:.0%} of "
                                   f"baseline, {kind} {factor:.0%}")
    return regressions


def diff_pipeline(cur, base):
    return diff_rows(cur["sweep"], base["sweep"],
                     lambda r: r["crypto_threads"],
                     ceiling={"sim_seconds": 1.15,
                              "pipeline_sim_seconds": 1.15})


def by_tenants(row):
    return row["tenants"]


def by_point(row):
    return (row["overload_factor"], row["controlled"], row["chaos"])


def diff_serve_fleet(cur, base):
    return (diff_rows(cur["kernel_gate"], base["kernel_gate"], by_tenants,
                      floor={"wheel_events_per_sec": 0.40})
            + diff_rows(cur["serve"], base["serve"], by_tenants,
                        exact=("issued", "completed", "slo_misses",
                               "events_dispatched", "sim_seconds"),
                        floor={"events_per_sec": 0.40}))


def diff_serve_chaos(cur, base):
    # A rotating-seed run has its own ledger; only the goodput holds.
    exact = ()
    if cur["seed"] == base["seed"]:
        exact = ("issued", "arrivals", "admitted", "completed",
                 "slo_misses", "shed_on_admit", "shed_on_deadline",
                 "retries", "rerouted", "crashes", "events_dispatched")
    else:
        print(f"  seeds differ ({cur['seed']} vs {base['seed']}): "
              "goodput only")
    headline = [r for r in base["sweep"]
                if by_point(r) == (1.5, True, False)]
    require(headline, "baseline lacks the 1.5x controlled no-chaos point")
    return (diff_rows(cur["sweep"], base["sweep"], by_point, exact=exact)
            + diff_rows(cur["sweep"], headline, by_point,
                        floor={"goodput_per_sec": 0.85}))


# workload -> (schema file, structural check, baseline diff)
BENCHES = {
    "crash-recovery": (None, check_recovery, None),
    "fig8-llama2-transfer-mix": (None, check_pipeline, diff_pipeline),
    "serve_fleet": (None, check_serve_fleet, diff_serve_fleet),
    "serve_chaos": ("bench_serve_chaos.schema.json", check_serve_chaos,
                    diff_serve_chaos),
    "backend-comparison": ("bench_backends.schema.json", check_backends,
                           None),
}


def check(path, baseline_path):
    doc = load(path)
    diff = None
    if "groups" in doc:
        kind, summary = "metrics", check_metrics(doc)
    elif "traceEvents" in doc:
        kind, summary = "trace", check_trace(doc)
    elif "workload" in doc:
        kind = doc["workload"]
        require(kind in BENCHES, f"unknown workload {kind!r}")
        schema, structure, diff = BENCHES[kind]
        require(doc.get("schema_version") == 2,
                f"schema_version {doc.get('schema_version')!r} != 2")
        if schema:
            validate(doc, load(SCHEMAS / schema))
        summary = structure(doc)
    else:
        raise ValueError("neither a metrics snapshot, a trace nor a "
                         "bench result")
    print(f"{path}: {kind} ok ({summary})")
    if baseline_path is None:
        return
    require(diff, f"no baseline diff for {kind}")
    base = load(baseline_path)
    require(base.get("workload") == kind,
            f"baseline workload {base.get('workload')!r} != {kind!r}")
    regressions = diff(doc, base)
    require(not regressions, "\n".join(regressions))
    print(f"{path}: within baseline {baseline_path}")


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    try:
        check(argv[1], argv[2] if len(argv) == 3 else None)
    except (ValueError, KeyError, TypeError, OSError) as e:
        message = f"missing field {e}" if isinstance(e, KeyError) else e
        for line in str(message).splitlines():
            print(f"FAIL: {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
