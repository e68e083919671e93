#!/usr/bin/env python3
"""Validate the observability plane's machine-readable outputs.

Usage:
    validate_obs.py METRICS_JSON SCHEMA_JSON [TRACE_JSON]
    validate_obs.py --bench BENCH_recovery.json
    validate_obs.py --bench-pipeline BENCH_pipeline.json
    validate_obs.py --bench-serve BENCH_serve.json
    validate_obs.py --bench-serve-chaos BENCH_serve_chaos.json
    validate_obs.py --bench-backends BENCH_backends.json

Checks (default mode):
  1. METRICS_JSON parses and validates against SCHEMA_JSON. Uses the
     `jsonschema` package when importable; otherwise falls back to a
     small built-in validator covering the subset of JSON Schema the
     checked-in schema uses (type / required / properties /
     additionalProperties / const / minimum). No pip installs.
  2. TRACE_JSON (optional) parses, has a traceEvents array, and its
     duration events are balanced: equal numbers of 'B' and 'E'
     events overall and per track, with depth never going negative in
     record order.

Checks (--bench-pipeline mode, for bench_pipeline_parallel output):
  schema_version 2, every sweep row verified its roundtrips with zero
  stale classifications, sequential digests bit-identical across
  widths, ring-occupancy and queue-wait histograms internally
  consistent, and the pipeline speedup gate (>= 6x at 8 threads when
  both widths are present).

Checks (--bench-serve mode, for bench_serve_fleet output):
  schema_version 2, every kernel-gate row dispatched events through
  both kernels with the wheel dispatching strictly fewer (the legacy
  heap pays for stale no-op cancellations; the wheel deschedules
  them), the >= 10x wall-clock speedup gate at the largest tenant
  count, and every serve row internally consistent: completions do
  not exceed issues, SLO misses do not exceed issues, and the
  TTFT / end-to-end percentiles are monotonically ordered.

Checks (--bench-serve-chaos mode, for bench_serve_chaos output):
  Validates against schemas/bench_serve_chaos.schema.json (resolved
  relative to this script), then checks the request ledger of every
  sweep row balances seed-independently: arrivals = admitted +
  shed_on_admit, issued = arrivals + retries, and admitted =
  completed + shed_on_deadline (the zero-lost guarantee — every
  admitted request either completes or is explicitly shed, even when
  an xPU crashes mid-run). Percentiles must be ordered, every chaos
  row must have injected at least one crash and rerouted displaced
  work, and all five robustness gate booleans must be true.

Checks (--bench-backends mode, for bench_backends output):
  Validates against schemas/bench_backends.schema.json (resolved
  relative to this script), then checks all three protection
  backends (ccai, h100cc, acai) are present with the same row
  labels, every row's overhead matches its vanilla/secure pair, the
  rival designs charge a non-trivial overhead where the interposed
  PCIe-SC stays cheap, and the ccai backend's mean E2E overhead is
  the lowest of the three.

Checks (--bench mode, for bench_recovery output):
  The watchdog-tax gate holds (overhead_pct < target_pct with probe
  rounds actually recorded), every chaos run drained, every episode
  resolved to recovered or quarantined, and each chaos row carries
  consistent detect/recovery latency histograms (count == episodes,
  min <= p50 <= p99 <= max).

Exits non-zero with a message on the first failure.
"""

import json
import sys

TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "integer": int,
    "number": (int, float),
    "null": type(None),
}


def fallback_validate(instance, schema, path="$"):
    """Minimal draft-07 subset validator (see module docstring)."""
    expected = schema.get("type")
    if expected is not None:
        py = TYPES[expected]
        ok = isinstance(instance, py)
        # bool is a subclass of int in Python; keep them distinct.
        if expected in ("integer", "number") and isinstance(
            instance, bool
        ):
            ok = False
        if not ok:
            raise ValueError(
                f"{path}: expected {expected}, "
                f"got {type(instance).__name__}"
            )
    if "const" in schema and instance != schema["const"]:
        raise ValueError(
            f"{path}: expected const {schema['const']!r}, "
            f"got {instance!r}"
        )
    if "enum" in schema and instance not in schema["enum"]:
        raise ValueError(
            f"{path}: {instance!r} not in enum {schema['enum']}"
        )
    if "minimum" in schema and isinstance(instance, (int, float)):
        if instance < schema["minimum"]:
            raise ValueError(
                f"{path}: {instance} < minimum {schema['minimum']}"
            )
    if "exclusiveMinimum" in schema and isinstance(
        instance, (int, float)
    ):
        if instance <= schema["exclusiveMinimum"]:
            raise ValueError(
                f"{path}: {instance} <= exclusiveMinimum "
                f"{schema['exclusiveMinimum']}"
            )
    if isinstance(instance, list):
        if len(instance) < schema.get("minItems", 0):
            raise ValueError(
                f"{path}: {len(instance)} items < minItems "
                f"{schema['minItems']}"
            )
        items = schema.get("items")
        if isinstance(items, dict):
            for i, value in enumerate(instance):
                fallback_validate(value, items, f"{path}[{i}]")
    if isinstance(instance, dict):
        for req in schema.get("required", []):
            if req not in instance:
                raise ValueError(f"{path}: missing required '{req}'")
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties")
        for key, value in instance.items():
            if key in props:
                fallback_validate(value, props[key], f"{path}.{key}")
            elif isinstance(extra, dict):
                fallback_validate(value, extra, f"{path}.{key}")


def check_metrics(metrics_path, schema_path):
    with open(metrics_path) as f:
        metrics = json.load(f)
    with open(schema_path) as f:
        schema = json.load(f)
    try:
        import jsonschema

        jsonschema.validate(metrics, schema)
        how = "jsonschema"
    except ImportError:
        fallback_validate(metrics, schema)
        how = "builtin validator"
    groups = metrics.get("groups", {})
    if not groups:
        raise ValueError("metrics snapshot has no metric groups")
    print(
        f"metrics ok ({how}): {len(groups)} groups, "
        f"sim_now_ticks={metrics['sim_now_ticks']}"
    )


def check_trace(trace_path):
    with open(trace_path) as f:
        trace = json.load(f)
    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise ValueError("trace has no traceEvents array")
    depth = {}
    counts = {"B": 0, "E": 0, "X": 0, "i": 0, "M": 0}
    for ev in events:
        ph = ev.get("ph")
        counts[ph] = counts.get(ph, 0) + 1
        tid = ev.get("tid")
        if ph == "B":
            depth[tid] = depth.get(tid, 0) + 1
        elif ph == "E":
            depth[tid] = depth.get(tid, 0) - 1
            if depth[tid] < 0:
                raise ValueError(
                    f"trace: 'E' without matching 'B' on tid {tid} "
                    f"({ev.get('name')})"
                )
    unbalanced = {t: d for t, d in depth.items() if d}
    if unbalanced:
        raise ValueError(f"trace: unbalanced B/E spans: {unbalanced}")
    print(
        f"trace ok: {len(events)} events "
        f"(B={counts['B']} E={counts['E']} X={counts['X']} "
        f"i={counts['i']})"
    )


def check_histogram(hist, label):
    for field in ("count", "min", "max", "p50", "p99"):
        if field not in hist:
            raise ValueError(f"{label}: missing '{field}'")
    if hist["count"] > 0:
        if not hist["min"] <= hist["p50"] <= hist["p99"] <= hist["max"]:
            raise ValueError(
                f"{label}: percentiles out of order "
                f"(min={hist['min']} p50={hist['p50']} "
                f"p99={hist['p99']} max={hist['max']})"
            )


def check_bench_recovery(bench_path):
    with open(bench_path) as f:
        bench = json.load(f)
    if bench.get("workload") != "crash-recovery":
        raise ValueError(
            f"bench: workload is {bench.get('workload')!r}, "
            "expected 'crash-recovery'"
        )

    tax = bench["watchdog_tax"]
    if tax["overhead_pct"] >= tax["target_pct"]:
        raise ValueError(
            f"bench: watchdog overhead {tax['overhead_pct']:.3f}% "
            f">= target {tax['target_pct']}%"
        )
    if tax["armed_probe_rounds"] <= 0:
        raise ValueError(
            "bench: armed run recorded no probe rounds — the "
            "overhead measurement observed nothing"
        )

    rows = bench.get("chaos", [])
    if not rows:
        raise ValueError("bench: no chaos scenarios recorded")
    crashy = 0
    for row in rows:
        label = f"bench chaos[{row.get('scenario', '?')}]"
        if not row.get("drained"):
            raise ValueError(f"{label}: run did not drain")
        resolved = (
            row["recovered_episodes"] + row["quarantined_episodes"]
        )
        if resolved != row["episodes"]:
            raise ValueError(
                f"{label}: {row['episodes']} episodes but only "
                f"{resolved} resolved"
            )
        if row["crashes_injected"] > 0:
            crashy += 1
            if row["episodes"] == 0:
                raise ValueError(
                    f"{label}: crashes injected but no recovery "
                    "episode detected"
                )
        check_histogram(
            row["detect_latency_ticks"], f"{label}.detect"
        )
        check_histogram(
            row["recovery_latency_ticks"], f"{label}.recovery"
        )
        if row["detect_latency_ticks"]["count"] != row["episodes"]:
            raise ValueError(
                f"{label}: detect latency count "
                f"{row['detect_latency_ticks']['count']} != "
                f"episodes {row['episodes']}"
            )
    if crashy == 0:
        raise ValueError(
            "bench: no chaos scenario injected any crash — the "
            "recovery path was never exercised"
        )
    for gate in (
        "watchdog_overhead_lt_2pct",
        "all_runs_drained",
        "all_episodes_resolved",
    ):
        if bench.get(gate) is not True:
            raise ValueError(f"bench: gate '{gate}' is not true")
    print(
        f"bench ok: overhead {tax['overhead_pct']:.4f}% "
        f"(< {tax['target_pct']}%), {len(rows)} chaos scenarios, "
        f"{sum(r['episodes'] for r in rows)} episodes all resolved"
    )


def check_bench_pipeline(bench_path):
    with open(bench_path) as f:
        bench = json.load(f)
    if bench.get("schema_version") != 2:
        raise ValueError(
            f"bench: schema_version is "
            f"{bench.get('schema_version')!r}, expected 2"
        )
    if bench.get("workload") != "fig8-llama2-transfer-mix":
        raise ValueError(
            f"bench: workload is {bench.get('workload')!r}, "
            "expected 'fig8-llama2-transfer-mix'"
        )
    rows = bench.get("sweep", [])
    if not rows:
        raise ValueError("bench: no sweep rows recorded")
    digests = set()
    for row in rows:
        label = f"bench sweep[{row.get('crypto_threads', '?')}]"
        for flag in ("seq_roundtrip_ok", "pipe_roundtrip_ok"):
            if row.get(flag) is not True:
                raise ValueError(f"{label}: {flag} is not true")
        if row["a1_blocked"] != 0:
            raise ValueError(
                f"{label}: {row['a1_blocked']} stale-policy "
                "classifications"
            )
        digests.add(row["digest"])
        for key in (
            "h2d_prepare_ticks",
            "d2h_collect_ticks",
            "meta_ring_occupancy",
            "queue_wait_ns",
        ):
            check_histogram(row[key], f"{label}.{key}")
        if row["meta_ring_occupancy"]["count"] == 0:
            raise ValueError(
                f"{label}: completion ring never sampled — the "
                "batched record path did not run"
            )
    if len(digests) != 1:
        raise ValueError(
            f"bench: sequential digests differ across widths: "
            f"{sorted(digests)}"
        )
    for gate in (
        "bit_identical_across_widths",
        "pipeline_digest_identical",
        "roundtrip_verified",
        "tlb_hit_rate_ge_0_9",
        "zero_stale_classifications",
    ):
        if bench.get(gate) is not True:
            raise ValueError(f"bench: gate '{gate}' is not true")
    speedup = bench.get("pipeline_speedup_at_8_threads")
    if speedup is not None and speedup < 6.0:
        raise ValueError(
            f"bench: pipeline speedup at 8 threads {speedup:.2f}x "
            "< 6.00x"
        )
    print(
        f"bench ok: {len(rows)} widths, digest {rows[0]['digest']} "
        "identical across widths, "
        + (
            f"pipeline speedup at 8 threads {speedup:.2f}x"
            if speedup is not None
            else "no 8-thread row"
        )
    )


def check_bench_serve(bench_path):
    with open(bench_path) as f:
        bench = json.load(f)
    if bench.get("schema_version") != 2:
        raise ValueError(
            f"bench: schema_version is "
            f"{bench.get('schema_version')!r}, expected 2"
        )
    if bench.get("workload") != "serve_fleet":
        raise ValueError(
            f"bench: workload is {bench.get('workload')!r}, "
            "expected 'serve_fleet'"
        )

    gate_rows = bench.get("kernel_gate", [])
    if not gate_rows:
        raise ValueError("bench: no kernel_gate rows recorded")
    for row in gate_rows:
        label = f"bench kernel_gate[{row.get('tenants', '?')}]"
        if row["legacy_dispatched"] <= 0 or row["wheel_dispatched"] <= 0:
            raise ValueError(f"{label}: a kernel dispatched nothing")
        if row["wheel_dispatched"] >= row["legacy_dispatched"]:
            raise ValueError(
                f"{label}: wheel dispatched "
                f"{row['wheel_dispatched']} >= legacy "
                f"{row['legacy_dispatched']} — O(1) deschedule is "
                "not eliding the stale no-op dispatches"
            )
        if row["speedup"] <= 0:
            raise ValueError(f"{label}: non-positive speedup")
    speedup = bench.get("speedup_10k", 0.0)
    if speedup < 10.0:
        raise ValueError(
            f"bench: speedup_10k {speedup:.2f}x < 10.00x — the "
            "timer-wheel kernel gate failed"
        )

    serve_rows = bench.get("serve", [])
    if not serve_rows:
        raise ValueError("bench: no serve rows recorded")
    for row in serve_rows:
        label = f"bench serve[{row.get('tenants', '?')}]"
        if row["issued"] <= 0:
            raise ValueError(f"{label}: no requests issued")
        if row["completed"] > row["issued"]:
            raise ValueError(
                f"{label}: completed {row['completed']} > issued "
                f"{row['issued']}"
            )
        if row["slo_misses"] > row["issued"]:
            raise ValueError(
                f"{label}: slo_misses {row['slo_misses']} > issued "
                f"{row['issued']}"
            )
        if row["events_dispatched"] <= 0:
            raise ValueError(f"{label}: no events dispatched")
        for prefix in ("ttft", "e2e"):
            p50 = row[f"{prefix}_p50_s"]
            p95 = row[f"{prefix}_p95_s"]
            p99 = row[f"{prefix}_p99_s"]
            if not 0 <= p50 <= p95 <= p99:
                raise ValueError(
                    f"{label}: {prefix} percentiles out of order "
                    f"(p50={p50} p95={p95} p99={p99})"
                )
    print(
        f"bench ok: speedup_10k {speedup:.1f}x (>= 10x), "
        f"{len(gate_rows)} kernel-gate rows, {len(serve_rows)} serve "
        f"rows, {sum(r['issued'] for r in serve_rows)} requests"
    )


def check_bench_serve_chaos(bench_path):
    import os

    with open(bench_path) as f:
        bench = json.load(f)
    schema_path = os.path.join(
        os.path.dirname(os.path.abspath(__file__)),
        "..",
        "schemas",
        "bench_serve_chaos.schema.json",
    )
    with open(schema_path) as f:
        schema = json.load(f)
    try:
        import jsonschema

        jsonschema.validate(bench, schema)
        how = "jsonschema"
    except ImportError:
        fallback_validate(bench, schema)
        how = "builtin validator"

    rows = bench["sweep"]
    chaos_rows = 0
    for row in rows:
        label = (
            f"bench sweep[{row['overload_factor']}x "
            f"{'ctl' if row['controlled'] else 'raw'}"
            f"{'+chaos' if row['chaos'] else ''}]"
        )
        # The request ledger must balance regardless of seed: these
        # are conservation laws of the admission/retry/shed pipeline,
        # not tuning-dependent outcomes.
        if row["arrivals"] != row["admitted"] + row["shed_on_admit"]:
            raise ValueError(
                f"{label}: arrivals {row['arrivals']} != admitted "
                f"{row['admitted']} + shed_on_admit "
                f"{row['shed_on_admit']}"
            )
        if row["issued"] != row["arrivals"] + row["retries"]:
            raise ValueError(
                f"{label}: issued {row['issued']} != arrivals "
                f"{row['arrivals']} + retries {row['retries']}"
            )
        if row["admitted"] != (
            row["completed"] + row["shed_on_deadline"]
        ):
            raise ValueError(
                f"{label}: admitted {row['admitted']} != completed "
                f"{row['completed']} + shed_on_deadline "
                f"{row['shed_on_deadline']} — an admitted request "
                "was lost"
            )
        if row["slo_misses"] > row["completed"]:
            raise ValueError(
                f"{label}: slo_misses {row['slo_misses']} > "
                f"completed {row['completed']}"
            )
        for prefix in ("ttft", "e2e"):
            p50 = row[f"{prefix}_p50_s"]
            p95 = row[f"{prefix}_p95_s"]
            p99 = row[f"{prefix}_p99_s"]
            if not 0 <= p50 <= p95 <= p99:
                raise ValueError(
                    f"{label}: {prefix} percentiles out of order "
                    f"(p50={p50} p95={p95} p99={p99})"
                )
        if row["chaos"]:
            chaos_rows += 1
            if row["crashes"] < 1:
                raise ValueError(
                    f"{label}: chaos row injected no crash"
                )
            if row["rerouted"] < 1:
                raise ValueError(
                    f"{label}: chaos row displaced no work — the "
                    "crash landed on an idle device and the "
                    "re-route path was never exercised"
                )
        elif row["crashes"] != 0:
            raise ValueError(
                f"{label}: non-chaos row reports "
                f"{row['crashes']} crashes"
            )
    if chaos_rows == 0:
        raise ValueError("bench: no chaos rows in sweep")
    for gate in (
        "goodput_retention_ok",
        "ttft_bounded_ok",
        "unbounded_collapse_shown",
        "zero_lost_ok",
        "replay_identical",
    ):
        if bench.get(gate) is not True:
            raise ValueError(f"bench: gate '{gate}' is not true")
    print(
        f"bench ok ({how}): {len(rows)} sweep rows "
        f"({chaos_rows} with chaos, "
        f"{sum(r['crashes'] for r in rows)} crashes, "
        f"{sum(r['rerouted'] for r in rows)} rerouted), ledger "
        "balanced, all 5 gates true"
    )


def check_bench_backends(bench_path):
    import os

    with open(bench_path) as f:
        bench = json.load(f)
    schema_path = os.path.join(
        os.path.dirname(os.path.abspath(__file__)),
        "..",
        "schemas",
        "bench_backends.schema.json",
    )
    with open(schema_path) as f:
        schema = json.load(f)
    try:
        import jsonschema

        jsonschema.validate(bench, schema)
        how = "jsonschema"
    except ImportError:
        fallback_validate(bench, schema)
        how = "builtin validator"

    backends = {b["backend"]: b for b in bench["backends"]}
    expected = {"ccai", "h100cc", "acai"}
    if set(backends) != expected:
        raise ValueError(
            f"bench: backends {sorted(backends)} != "
            f"{sorted(expected)}"
        )

    label_sets = {
        name: [row["label"] for row in b["rows"]]
        for name, b in backends.items()
    }
    if len({tuple(labels) for labels in label_sets.values()}) != 1:
        raise ValueError(
            f"bench: backends ran different row sets: {label_sets}"
        )
    if not label_sets["ccai"]:
        raise ValueError("bench: no comparison rows recorded")

    for name, b in backends.items():
        for row in b["rows"]:
            label = f"bench {name}[{row['label']}]"
            if row["vanilla_e2e_s"] <= 0:
                raise ValueError(f"{label}: non-positive vanilla E2E")
            expected_pct = (
                100.0
                * (row["secure_e2e_s"] - row["vanilla_e2e_s"])
                / row["vanilla_e2e_s"]
            )
            if abs(expected_pct - row["e2e_overhead_pct"]) > 0.05:
                raise ValueError(
                    f"{label}: e2e_overhead_pct "
                    f"{row['e2e_overhead_pct']:.3f} inconsistent "
                    f"with e2e pair ({expected_pct:.3f})"
                )

    means = {
        name: b["mean_e2e_overhead_pct"]
        for name, b in backends.items()
    }
    for name, mean in means.items():
        if mean < 0:
            raise ValueError(
                f"bench: {name} mean overhead {mean:.2f}% is "
                "negative — the protected run beat vanilla"
            )
    if means["ccai"] >= min(means["h100cc"], means["acai"]):
        raise ValueError(
            f"bench: ccai mean overhead {means['ccai']:.2f}% is not "
            f"the lowest (h100cc {means['h100cc']:.2f}%, acai "
            f"{means['acai']:.2f}%)"
        )
    print(
        f"bench ok ({how}): {len(label_sets['ccai'])} rows x 3 "
        "backends, mean E2E overhead "
        + ", ".join(
            f"{name} {means[name]:.2f}%"
            for name in ("ccai", "h100cc", "acai")
        )
    )


def main(argv):
    if len(argv) == 3 and argv[1] == "--bench-backends":
        try:
            check_bench_backends(argv[2])
        except (
            ValueError,
            KeyError,
            OSError,
            json.JSONDecodeError,
        ) as e:
            print(f"FAIL: {e}", file=sys.stderr)
            return 1
        return 0
    if len(argv) == 3 and argv[1] == "--bench-serve-chaos":
        try:
            check_bench_serve_chaos(argv[2])
        except (
            ValueError,
            KeyError,
            OSError,
            json.JSONDecodeError,
        ) as e:
            print(f"FAIL: {e}", file=sys.stderr)
            return 1
        return 0
    if len(argv) == 3 and argv[1] == "--bench-serve":
        try:
            check_bench_serve(argv[2])
        except (
            ValueError,
            KeyError,
            OSError,
            json.JSONDecodeError,
        ) as e:
            print(f"FAIL: {e}", file=sys.stderr)
            return 1
        return 0
    if len(argv) == 3 and argv[1] == "--bench-pipeline":
        try:
            check_bench_pipeline(argv[2])
        except (
            ValueError,
            KeyError,
            OSError,
            json.JSONDecodeError,
        ) as e:
            print(f"FAIL: {e}", file=sys.stderr)
            return 1
        return 0
    if len(argv) == 3 and argv[1] == "--bench":
        try:
            check_bench_recovery(argv[2])
        except (
            ValueError,
            KeyError,
            OSError,
            json.JSONDecodeError,
        ) as e:
            print(f"FAIL: {e}", file=sys.stderr)
            return 1
        return 0
    if len(argv) not in (3, 4):
        print(__doc__, file=sys.stderr)
        return 2
    try:
        check_metrics(argv[1], argv[2])
        if len(argv) == 4:
            check_trace(argv[3])
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as e:
        print(f"FAIL: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
