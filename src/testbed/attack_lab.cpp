#include "testbed/attack_lab.h"

#include <utility>

#include "sweep/sweep_runner.h"

namespace memca::testbed {

namespace {

/// Runs the attack + measurement window against an already-warmed testbed
/// and harvests the cell's result. Shared verbatim by the cold path (fresh
/// testbed) and the warm path (checkpointed testbed after a rollback), which
/// is what makes the two byte-identical: they execute the same code against
/// bit-identical world state. `warm` only changes how the registry is
/// harvested — a warm world keeps its registry (the next rollback needs it),
/// so the result gets a value clone instead of ownership.
AttackLabResult measure_cell(RubbosTestbed& bed, const AttackLabConfig& config, bool warm) {
  AttackLabResult result;
  std::unique_ptr<core::MemcaAttack> attack;
  if (config.attack_enabled) {
    core::MemcaConfig memca;
    memca.enable_controller = false;
    memca.params = config.params;
    memca.interval_jitter = config.jitter;
    attack = bed.make_attack(memca);
    attack->start();
    bed.sim().run_for(0);  // the first burst is ON now
    result.d_on = bed.coupling().capacity_multiplier();
  }
  bed.sim().run_for(config.duration);
  if (attack) {
    result.bursts = attack->scheduler().bursts_fired();
    attack->stop();
  }

  const auto& rt = bed.clients().response_times();
  result.client_p50 = rt.quantile(0.50);
  result.client_p95 = rt.quantile(0.95);
  result.client_p98 = rt.quantile(0.98);
  result.client_p99 = rt.quantile(0.99);
  result.client_p999 = rt.quantile(0.999);
  for (std::size_t i = 0; i < bed.system().num_tiers(); ++i) {
    result.tier_p95.push_back(bed.system().tier(i).residence_time().quantile(0.95));
  }
  result.throughput = bed.clients().throughput();
  result.drops = bed.clients().dropped_attempts();
  const double attempts =
      static_cast<double>(bed.clients().completed() + bed.clients().dropped_attempts());
  result.drop_fraction =
      attempts > 0 ? static_cast<double>(result.drops) / attempts : 0.0;

  const TimeSeries& cpu = bed.target_cpu().series();
  result.cpu_mean = cpu.mean();
  result.cpu_max_50ms = cpu.max();
  result.cpu_max_1s = cpu.resample_mean(sec(std::int64_t{1})).max();
  result.cpu_max_1min = cpu.resample_mean(kMinute).max();
  result.autoscaler_triggered =
      monitor::evaluate_autoscaler(cpu, monitor::AutoScalerConfig{}).triggered;

  // Mean contiguous saturation run (>98% busy windows).
  double sat_sum = 0.0;
  int sat_runs = 0;
  int run_len = 0;
  for (const Sample& s : cpu.samples()) {
    if (s.value > 0.98) {
      ++run_len;
    } else if (run_len > 0) {
      sat_sum += static_cast<double>(run_len) * to_seconds(bed.config().fine_granularity);
      ++sat_runs;
      run_len = 0;
    }
  }
  if (sat_runs > 0) result.mean_saturation_s = sat_sum / sat_runs;

  if (config.attack_enabled) {
    core::AttackModelInputs inputs;
    inputs.tiers = bed.model_params();
    inputs.degradation_index = result.d_on;
    inputs.burst_length = config.params.burst_length;
    inputs.burst_interval = config.params.burst_interval;
    result.model = core::evaluate_attack_model(inputs);
  }

  // Whole-run attribution needs the full arena stream; the flight ring only
  // retains a bounded suffix, so skip it when merely flight-recording.
  if (config.testbed.trace && bed.trace() != nullptr) {
    trace::TailAttributor attributor(*bed.trace(), bed.system().depth());
    result.tail = attributor.summary();
  }

  // finalize_metrics also closes a still-open incident window, so it must
  // run even when the cell carries no registry.
  if (bed.registry() != nullptr || bed.flight() != nullptr) {
    bed.finalize_metrics(attack.get());
  }
  if (bed.flight() != nullptr) {
    result.incidents = bed.flight()->incidents();
    result.incidents_dropped = bed.flight()->incidents_dropped();
  }

  if (bed.registry() != nullptr) {
    if (warm) {
      result.registry = std::make_unique<metrics::Registry>();
      bed.registry()->clone_values_into(*result.registry);
    } else {
      result.registry = bed.release_metrics();
    }
  }
  return result;
}

/// A worker-cached testbed: built once, warmed once, checkpointed in place.
/// Keeps the caller's testbed config (before the testbed's env overrides)
/// and warm-up: a cell that matches both rewinds to the checkpoint and runs
/// only its own measurement window.
struct WarmWorld {
  TestbedConfig testbed;
  SimTime warmup;
  RubbosTestbed bed;

  explicit WarmWorld(const AttackLabConfig& config)
      : testbed(config.testbed), warmup(config.warmup), bed(config.testbed) {
    bed.start();
    if (warmup > 0) bed.sim().run_for(warmup);
    bed.snapshot();
  }
};

}  // namespace

AttackLabResult run_attack_lab(const AttackLabConfig& config) {
  RubbosTestbed bed(config.testbed);
  bed.start();
  if (config.warmup > 0) bed.sim().run_for(config.warmup);
  return measure_cell(bed, config, /*warm=*/false);
}

std::vector<AttackLabResult> run_attack_lab_sweep(std::vector<AttackLabConfig> configs,
                                                  int threads) {
  sweep::SweepRunner runner({threads});
  return runner.map(std::move(configs),
                    [](const AttackLabConfig& config, sweep::WorkerCache& cache) {
                      WarmWorld& world = cache.get_or_build<WarmWorld>(
                          [&config](const WarmWorld& w) {
                            return w.testbed == config.testbed && w.warmup == config.warmup;
                          },
                          [&config] { return std::make_unique<WarmWorld>(config); });
                      // A fresh world's snapshot matches its live state, so
                      // rolling back unconditionally is an identity there
                      // and a rewind everywhere else.
                      world.bed.rollback();
                      return measure_cell(world.bed, config, /*warm=*/true);
                    });
}

std::unique_ptr<metrics::Registry> merge_sweep_registries(
    std::vector<AttackLabResult>& results) {
  std::unique_ptr<metrics::Registry> merged;
  for (AttackLabResult& result : results) {
    if (result.registry == nullptr) continue;
    if (merged == nullptr) merged = std::make_unique<metrics::Registry>();
    merged->merge(*result.registry);
  }
  return merged;
}

}  // namespace memca::testbed
