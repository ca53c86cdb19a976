// Snapshot exporters: Prometheus text exposition format and JSON.
//
// Both exporters render from the same MetricsSnapshot and format every
// floating-point value through the same max-precision printer, so the
// two documents carry identical values (the differential round-trip
// test asserts it). Flight-recorder dumps export as JSON only.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "analognf/telemetry/flight_recorder.hpp"
#include "analognf/telemetry/metrics.hpp"

namespace analognf::telemetry {

// Prometheus metric name for a registry metric name: characters outside
// [a-zA-Z0-9_:] become '_' and the result is prefixed "analognf_"
// (e.g. "stage.parse.drops" -> "analognf_stage_parse_drops").
std::string PrometheusName(const std::string& name);

// Round-trippable float rendering (max 17 significant digits); integers
// render without an exponent. Shared by both exporters.
std::string FormatValue(double v);

// Prometheus text exposition format: counters and gauges as single
// samples, histograms as cumulative `_bucket{le="..."}` series plus
// `_sum` and `_count`.
std::string ToPrometheusText(const MetricsSnapshot& snapshot);

// JSON document: {"counters": {...}, "gauges": {...}, "histograms":
// {name: {"upper_bounds": [...], "counts": [...], "count": n, "sum": s}}.
// Histogram "counts" are per-bucket (not cumulative); the final entry is
// the overflow bucket.
std::string ToJson(const MetricsSnapshot& snapshot);

// JSON array of flight-recorder records, oldest first.
std::string ToJson(const std::vector<BatchTraceRecord>& records);

}  // namespace analognf::telemetry
