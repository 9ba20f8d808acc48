// Measurement harness shared by the figure benches: runs a configured
// attack against a fresh testbed and collects the metrics the paper's
// evaluation reports (percentile RTs, drop fractions, CPU series, burst
// telemetry, analytic-model predictions for the same run).
#pragma once

#include <memory>
#include <optional>

#include "common/histogram.h"
#include "core/analytic_model.h"
#include "flightrec/incident.h"
#include "monitor/autoscaler.h"
#include "testbed/rubbos_testbed.h"
#include "trace/attributor.h"

namespace memca::testbed {

struct AttackLabConfig {
  TestbedConfig testbed;
  core::AttackParams params;
  /// Interval jitter passed to the burst scheduler.
  double jitter = 0.0;
  /// Attack-free warm-up simulated before the attack starts and the
  /// measurement window opens. In a sweep, cells sharing (testbed, warmup)
  /// run this prefix once per worker and rewind to a checkpoint of it
  /// instead of re-simulating (see run_attack_lab_sweep).
  SimTime warmup = 0;
  SimTime duration = 3 * kMinute;
  bool attack_enabled = true;
};

struct AttackLabResult {
  /// Degradation index observed while a burst is ON.
  double d_on = 1.0;
  /// Client response-time quantiles (µs).
  SimTime client_p50 = 0, client_p95 = 0, client_p98 = 0, client_p99 = 0;
  SimTime client_p999 = 0;
  /// Per-tier p95 residence times, front first (µs).
  std::vector<SimTime> tier_p95;
  double throughput = 0.0;
  std::int64_t drops = 0;
  double drop_fraction = 0.0;
  /// MySQL CPU utilization statistics.
  double cpu_mean = 0.0;
  double cpu_max_50ms = 0.0;
  double cpu_max_1s = 0.0;
  double cpu_max_1min = 0.0;
  bool autoscaler_triggered = false;
  /// Mean contiguous MySQL CPU saturation length, seconds (the measured
  /// millibottleneck), 0 if none observed.
  double mean_saturation_s = 0.0;
  /// Analytic prediction for the same run (valid when attack_enabled).
  core::AttackModelOutputs model;
  std::int64_t bursts = 0;
  /// Per-cause tail attribution over the whole run, tail cutoff 1 s
  /// (populated iff config.testbed.trace — needs the full arena, not the
  /// flight ring).
  trace::TailSummary tail;
  /// Incident records (populated iff config.testbed.flightrec), in
  /// emission order; deterministic per cell, so a sweep's concatenation in
  /// cell order is independent of the thread count.
  std::vector<flightrec::Incident> incidents;
  /// Incidents past FlightRecorderConfig::max_incidents (counted, unstored).
  std::int64_t incidents_dropped = 0;
  /// Not filled by run_attack_lab (client_p* above already carry the
  /// client histogram's quantiles); a caller may store a copy of the
  /// histogram here. Optional, so a result without one stays small (a
  /// histogram is ~21 KB).
  std::optional<LatencyHistogram> client_sketch;
  /// The cell's finalized metrics registry (populated iff
  /// config.testbed.metrics). Movable with the result, report-ready.
  std::unique_ptr<metrics::Registry> registry;
};

/// Runs one experiment cell. Deterministic given config.testbed.seed.
AttackLabResult run_attack_lab(const AttackLabConfig& config);

/// Runs a batch of independent cells on a thread pool (`threads` workers;
/// 0 = hardware concurrency / MEMCA_SWEEP_THREADS, 1 = inline sequential)
/// and returns results in cell order.
///
/// Consecutive cells on a worker that share the same *prefix* — a testbed
/// config and a warmup that compare equal (TestbedConfig's defaulted ==,
/// which reaches every nested config) — reuse one warm world: the worker
/// builds the testbed once, runs the warm-up, checkpoints it in place
/// (RubbosTestbed::snapshot) and rewinds before each cell instead of
/// re-simulating the prefix. Cells whose prefix differs from their
/// predecessor's fall back to cold construction, so ordering the grid with
/// the prefix varying slowest maximises reuse. Equality is by value: +0.0
/// and -0.0 match, and a NaN field never matches, so such a cell builds
/// cold (correct, only slower). Results are bit-identical to calling
/// run_attack_lab sequentially, regardless of thread count or how many
/// cells shared a world — the checkpoint invariant the snapshot test suite
/// enforces.
std::vector<AttackLabResult> run_attack_lab_sweep(std::vector<AttackLabConfig> configs,
                                                  int threads = 0);

/// Merges every cell registry of a sweep (in cell order) into one registry.
/// Because each cell registers its instruments in the same order and the
/// merge is additive, the merged bytes are independent of the thread count
/// that ran the sweep. Cells without a registry are skipped; returns null
/// when no cell carried one.
std::unique_ptr<metrics::Registry> merge_sweep_registries(
    std::vector<AttackLabResult>& results);

}  // namespace memca::testbed
