// The benchmark's workloads and layer probes. Everything here drives the
// simulator through its public API only.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/memca.h"
#include "report.h"
#include "testbed/attack_lab.h"

namespace memca::bench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 42;
  /// Work budget: each workload runs round(seconds / nominal unit cost)
  /// units, so one value of --seconds is the same work on every commit.
  double seconds = 10.0;
  /// Smallest sizes everywhere (the ctest smoke run).
  bool quick = false;
  /// Traced binary only: run just the workload's check units (or, for the
  /// pseudo-workload "ladder", the ladder) and report deterministic counters.
  bool counters = false;
  bool has_expected_fingerprint = false;
  std::uint64_t expected_fingerprint = 0;
};

/// The five workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Runs `options.workload` into `result`. False for an unknown name.
bool run_workload(const RunOptions& options, Result& result);

/// Traced binary: the probes every traced run reports beside its workload —
/// the layer ladder, snapshot capture/rollback and sweep scaling.
void run_probes(const RunOptions& options, Result& result);
/// Traced binary, counters mode: the ladder's deterministic counts only.
void run_ladder_counters(const RunOptions& options, Result& result);

// -- scenario definitions shared by workloads and probes ---------------------

/// The paper's Fig. 2 attack: memory lock, L = 500 ms, I = 2 s.
core::MemcaConfig fig2_attack();
/// One cold Fig. 2 cell: EC2 profile, 3,500 exact users, 180 s attacked.
testbed::AttackLabConfig fig2_cell(std::uint64_t seed);
/// The sweep grid: 8 burst lengths x 8 intervals sharing one 30 s prefix,
/// 60 s window each.
std::vector<testbed::AttackLabConfig> sweep_grid(std::uint64_t seed);

}  // namespace memca::bench
