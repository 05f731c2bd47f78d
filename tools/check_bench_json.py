#!/usr/bin/env python3
"""Validate omnifair.bench JSON documents (DESIGN.md §9).

Usage: check_bench_json.py FILE [FILE...]

Checks every file against schema_version 1:
  - required top-level keys with the right types,
  - each result row is {section, labels{str:str}, values{str:number}},
  - each tune trajectory report is a TuneReport whose points carry a
    cumulative models_trained (points[i].models_trained == i + 1),
  - the metrics snapshot has counters/gauges/histograms maps and every
    histogram's bucket counts sum to its count.

Exits non-zero (listing every problem found) when any file is invalid.
Standard library only, so it runs anywhere ctest does.
"""

import json
import sys

SCHEMA_NAME = "omnifair.bench"
SCHEMA_VERSION = 1

TOP_LEVEL = {
    "schema": str,
    "schema_version": int,
    "bench": str,
    "title": str,
    "config": dict,
    "results": list,
    "tune_trajectories": list,
    "metrics": dict,
    "recovery_events": dict,
    "wall_seconds": (int, float),
}

TUNE_POINT_FIELDS = {
    "lambdas": list,
    "stage": str,
    "fit_ok": bool,
    "models_trained": int,
    "seconds": (int, float),
    "evaluated": bool,
}

# Per-bench contracts: sections that must appear in "results", and numeric
# fields every row of that section must carry. Benches not listed here are
# only held to the generic schema.
PER_BENCH_SECTIONS = {
    "tree_build": {
        "tree_build": ["rows", "fit_seconds"],
        "binning_amortization": ["rows", "cold_seconds", "warm_seconds",
                                 "bins_reused"],
        "grid_reuse": ["models_trained", "seconds", "bins_reused"],
    },
    "checkpoint": {
        "checkpoint_overhead": ["plain_seconds", "checkpoint_seconds",
                                "throttled_seconds", "overhead_fraction",
                                "throttled_overhead_fraction",
                                "resume_seconds", "checkpoint_bytes"],
    },
    "serving": {
        "bundle_load": ["fit_seconds", "bundle_load_seconds",
                        "bundle_bytes"],
        "serving_closed": ["batch_rows", "requests", "rows", "qps",
                           "p50_us", "p99_us"],
        "serving_open": ["max_in_flight", "offered", "completed",
                         "rejected", "rows", "achieved_qps"],
    },
    "ingest": {
        "ingest_throughput": ["rows", "baseline_seconds", "stream_seconds",
                              "speedup", "stream_rows_per_second",
                              "spill_bytes", "peak_rss_mb"],
        "lambda_tune": ["rows", "full_batch_seconds", "minibatch_seconds",
                        "speedup", "full_batch_accuracy",
                        "minibatch_accuracy", "peak_rss_mb"],
    },
    # The in-process scalar-vs-active kernel comparison is emitted once per
    # run regardless of --benchmark_filter; *_speedup fields are added only
    # when a vector backend is active, so they are not required here.
    "microbench": {
        "kernel_speedup": ["n",
                           "dot_scalar_ns", "dot_simd_ns",
                           "axpy_scalar_ns", "axpy_simd_ns",
                           "sum_scalar_ns", "sum_simd_ns",
                           "sigmoid_scalar_ns", "sigmoid_simd_ns",
                           "dot_f32_scalar_ns", "dot_f32_simd_ns"],
    },
}


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_string_map(mapping, value_check, where, errors):
    for key, value in mapping.items():
        if not isinstance(key, str):
            errors.append(f"{where}: non-string key {key!r}")
        if not value_check(value):
            errors.append(f"{where}[{key!r}]: bad value {value!r}")


def check_result_row(row, where, errors):
    if not isinstance(row, dict):
        errors.append(f"{where}: not an object")
        return
    if not isinstance(row.get("section"), str) or not row.get("section"):
        errors.append(f"{where}: missing/empty 'section'")
    labels = row.get("labels")
    values = row.get("values")
    if not isinstance(labels, dict):
        errors.append(f"{where}: 'labels' is not an object")
    else:
        check_string_map(labels, lambda v: isinstance(v, str),
                         f"{where}.labels", errors)
    if not isinstance(values, dict):
        errors.append(f"{where}: 'values' is not an object")
    else:
        check_string_map(values, is_number, f"{where}.values", errors)


def check_tune_report(report, where, errors):
    if not isinstance(report, dict):
        errors.append(f"{where}: report is not an object")
        return
    if not isinstance(report.get("algorithm"), str):
        errors.append(f"{where}: missing 'algorithm'")
    epsilons = report.get("epsilons")
    if not isinstance(epsilons, list) or not all(is_number(e) for e in epsilons):
        errors.append(f"{where}: 'epsilons' is not a number array")
    points = report.get("points")
    if not isinstance(points, list):
        errors.append(f"{where}: 'points' is not an array")
        return
    for i, point in enumerate(points):
        pwhere = f"{where}.points[{i}]"
        if not isinstance(point, dict):
            errors.append(f"{pwhere}: not an object")
            continue
        for field, expected in TUNE_POINT_FIELDS.items():
            if field not in point:
                errors.append(f"{pwhere}: missing '{field}'")
            elif not isinstance(point[field], expected) or (
                    expected is int and isinstance(point[field], bool)):
                errors.append(f"{pwhere}: '{field}' has wrong type")
        lambdas = point.get("lambdas")
        if isinstance(lambdas, list) and not all(is_number(l) for l in lambdas):
            errors.append(f"{pwhere}: non-numeric lambda")
        # The acceptance invariant: one point per trainer invocation, counted
        # cumulatively from 1.
        if point.get("models_trained") != i + 1:
            errors.append(
                f"{pwhere}: models_trained={point.get('models_trained')!r}, "
                f"expected {i + 1} (cumulative fit count)")
        if point.get("evaluated"):
            if not is_number(point.get("val_accuracy")):
                errors.append(f"{pwhere}: evaluated but no 'val_accuracy'")
            parts = point.get("val_fairness_parts")
            if not isinstance(parts, list) or not all(is_number(p) for p in parts):
                errors.append(f"{pwhere}: evaluated but bad 'val_fairness_parts'")
    declared = report.get("models_trained")
    if isinstance(declared, int) and points and declared != len(points):
        errors.append(
            f"{where}: models_trained={declared} but {len(points)} points")


def check_bench_sections(doc, errors):
    """Per-bench required sections/fields (PER_BENCH_SECTIONS)."""
    required = PER_BENCH_SECTIONS.get(doc.get("bench"))
    if required is None:
        return
    rows_by_section = {}
    for row in doc.get("results", []):
        if isinstance(row, dict):
            rows_by_section.setdefault(row.get("section"), []).append(row)
    for section, fields in required.items():
        rows = rows_by_section.get(section)
        if not rows:
            errors.append(f"results: missing required section '{section}'")
            continue
        for i, row in enumerate(rows):
            values = row.get("values")
            if not isinstance(values, dict):
                continue  # already reported by check_result_row
            for field in fields:
                if not is_number(values.get(field)):
                    errors.append(
                        f"results[{section}][{i}]: missing numeric '{field}'")


def check_metrics(metrics, where, errors):
    for key in ("counters", "gauges", "histograms"):
        if not isinstance(metrics.get(key), dict):
            errors.append(f"{where}: missing '{key}' object")
    counters = metrics.get("counters")
    if isinstance(counters, dict):
        check_string_map(
            counters, lambda v: isinstance(v, int) and not isinstance(v, bool),
            f"{where}.counters", errors)
    gauges = metrics.get("gauges")
    if isinstance(gauges, dict):
        check_string_map(gauges, is_number, f"{where}.gauges", errors)
    histograms = metrics.get("histograms")
    if not isinstance(histograms, dict):
        return
    for name, hist in histograms.items():
        hwhere = f"{where}.histograms[{name!r}]"
        if not isinstance(hist, dict):
            errors.append(f"{hwhere}: not an object")
            continue
        bounds = hist.get("bounds")
        buckets = hist.get("buckets")
        count = hist.get("count")
        if not isinstance(bounds, list) or not all(is_number(b) for b in bounds):
            errors.append(f"{hwhere}: bad 'bounds'")
            continue
        if not isinstance(buckets, list) or len(buckets) != len(bounds) + 1:
            errors.append(f"{hwhere}: expected {len(bounds) + 1} buckets")
            continue
        if isinstance(count, int) and sum(buckets) != count:
            errors.append(
                f"{hwhere}: bucket sum {sum(buckets)} != count {count}")


def check_document(doc, errors):
    for key, expected in TOP_LEVEL.items():
        if key not in doc:
            errors.append(f"missing top-level key '{key}'")
        elif not isinstance(doc[key], expected) or isinstance(doc[key], bool):
            errors.append(f"top-level '{key}' has wrong type")
    if errors:
        return
    if doc["schema"] != SCHEMA_NAME:
        errors.append(f"schema is {doc['schema']!r}, expected {SCHEMA_NAME!r}")
    if doc["schema_version"] != SCHEMA_VERSION:
        errors.append(f"unsupported schema_version {doc['schema_version']!r}")
    if not doc["bench"]:
        errors.append("'bench' is empty")
    check_string_map(doc["config"],
                     lambda v: isinstance(v, str) or is_number(v),
                     "config", errors)
    for i, row in enumerate(doc["results"]):
        check_result_row(row, f"results[{i}]", errors)
    check_bench_sections(doc, errors)
    for i, entry in enumerate(doc["tune_trajectories"]):
        where = f"tune_trajectories[{i}]"
        if not isinstance(entry, dict):
            errors.append(f"{where}: not an object")
            continue
        if not isinstance(entry.get("label"), str):
            errors.append(f"{where}: missing 'label'")
        check_tune_report(entry.get("report"), where, errors)
    check_metrics(doc["metrics"], "metrics", errors)
    check_string_map(
        doc["recovery_events"],
        lambda v: isinstance(v, int) and not isinstance(v, bool) and v > 0,
        "recovery_events", errors)
    if doc["wall_seconds"] < 0:
        errors.append(f"negative wall_seconds {doc['wall_seconds']}")


def check_file(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"cannot parse: {exc}"]
    if not isinstance(doc, dict):
        return ["top level is not an object"]
    errors = []
    check_document(doc, errors)
    return errors


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failed = False
    for path in argv[1:]:
        errors = check_file(path)
        if errors:
            failed = True
            print(f"INVALID {path}")
            for error in errors:
                print(f"  - {error}")
        else:
            print(f"ok      {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
