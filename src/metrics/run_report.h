// RunReport: one machine-readable record summarizing a run end-to-end.
//
// Built from a Registry alone (plus scenario name and optional wall-clock
// timings supplied by the harness), so anything the report claims is
// backed by scraped data — including the paper's Fig. 10 blind-spot
// statement: the same utilization series shows transient saturation at
// native (50 ms) resolution while its 1 s and 1 min resamples stay under
// the auto-scaling threshold. Writable as JSON (BENCH_*-style perf record)
// and as markdown (human-facing run summary).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/time.h"
#include "metrics/registry.h"

namespace memca::metrics {

struct TierReport {
  std::string name;
  std::int64_t offered = 0;
  std::int64_t admitted = 0;
  std::int64_t rejected = 0;
  std::int64_t completed = 0;
  /// Utilization statistics of the scraped series, in [0, 1]: mean and max
  /// at native scrape resolution, plus the same series resampled to 1 s and
  /// 1 min windows (what coarse monitors would have seen).
  double util_mean = 0.0;
  double util_max_native = 0.0;
  double util_max_1s = 0.0;
  double util_max_1min = 0.0;
  /// 1 s windows above the auto-scaling threshold, and the longest run of
  /// consecutive such windows — a CloudWatch-style alarm fires only on
  /// >= 2 consecutive breaches, so isolated excursions keep it silent.
  std::int64_t util_1s_windows_above = 0;
  std::int64_t util_1s_max_consecutive_above = 0;
  double queue_mean = 0.0;
  double queue_max = 0.0;
};

struct RunReport {
  std::string scenario;
  double sim_seconds = 0.0;
  /// Wall-clock run time (0 when not measured, e.g. merged sweep reports).
  double wall_seconds = 0.0;
  SimTime scrape_resolution = 0;
  std::int64_t scrapes = 0;

  // Engine self-profile (the BENCH-compatible perf record).
  std::int64_t events_executed = 0;
  double events_per_wall_sec = 0.0;
  double sim_speedup = 0.0;  ///< simulated seconds per wall second
  std::int64_t pool_slots = 0;
  std::int64_t pending_high_water = 0;

  // Request flow.
  std::int64_t submitted = 0;
  std::int64_t completed = 0;
  std::int64_t dropped = 0;
  std::int64_t retransmitted = 0;
  std::int64_t failed = 0;

  // Client latency quantiles, µs.
  std::int64_t latency_count = 0;
  double latency_mean_us = 0.0;
  SimTime latency_p50 = 0, latency_p95 = 0, latency_p98 = 0, latency_p99 = 0;
  SimTime latency_max = 0;

  // Attack telemetry.
  std::int64_t bursts = 0;
  double duty_cycle = 0.0;  ///< attack ON time / sim time
  /// Dips of the capacity multiplier below 1.0 in the scraped series
  /// (entries into a degraded window) and the deepest value seen.
  std::int64_t capacity_dips = 0;
  double min_capacity_multiplier = 1.0;

  // Flight-recorder forensics (all zero when the flight recorder was off).
  bool flightrec = false;
  std::int64_t incidents = 0;
  std::int64_t incident_affected_requests = 0;

  std::int64_t log_warnings = 0;
  std::int64_t log_errors = 0;

  std::vector<TierReport> tiers;
};

struct RunReportOptions {
  std::string scenario;
  /// Wall-clock seconds the run took (enables events/sec and speedup).
  double wall_seconds = 0.0;
  /// Native resolution of the scraped series (for the record; the series
  /// themselves carry their own timestamps).
  SimTime scrape_resolution = 0;
  /// Auto-scaling utilization threshold the 1 s breach statistics use
  /// (the paper's 85% average-CPU trigger).
  double autoscale_threshold = 0.85;
};

/// Builds the report purely from registry contents (canonical names, see
/// metrics/names.h). Absent instruments leave their fields zeroed.
RunReport build_run_report(const Registry& registry, const RunReportOptions& options);

/// Writes the report as a single JSON object.
void write_json(std::ostream& out, const RunReport& report);
/// Writes the report as a human-facing markdown summary.
void write_markdown(std::ostream& out, const RunReport& report);

}  // namespace memca::metrics
