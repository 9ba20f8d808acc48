#include "defense/controller.h"

#include "common/check.h"

namespace memca::defense {

const char* to_string(DefenseStage stage) {
  switch (stage) {
    case DefenseStage::kMonitoring:
      return "monitoring";
    case DefenseStage::kAttributing:
      return "attributing";
    case DefenseStage::kMitigated:
      return "mitigated";
  }
  return "?";
}

DefenseController::DefenseController(Simulator& sim, queueing::TierServer& victim_tier,
                                     cloud::Host& host, cloud::VmId victim_vm,
                                     DefenseConfig config)
    : sim_(sim),
      tier_(victim_tier),
      host_(host),
      victim_vm_(victim_vm),
      config_(config),
      cusum_(config.cusum) {
  MEMCA_CHECK_MSG(config_.coarse_period > 0, "coarse period must be positive");
  MEMCA_CHECK_MSG(config_.attribution_period > 0, "attribution period must be positive");
  MEMCA_CHECK_MSG(config_.attribution_window >= config_.attribution_period,
                  "attribution window must cover at least one sample");
}

void DefenseController::start() {
  MEMCA_CHECK_MSG(coarse_task_ == nullptr, "defense already started");
  timeline_.started = sim_.now();
  last_integral_ = tier_.busy_worker_time_us();
  coarse_task_ = std::make_unique<PeriodicTask>(sim_, config_.coarse_period,
                                                [this] { coarse_tick(); });
}

void DefenseController::stop() {
  if (coarse_task_) coarse_task_->stop();
  if (fine_task_) fine_task_->stop();
  attribution_deadline_.cancel();
}

SimTime DefenseController::time_to_mitigate() const {
  if (timeline_.alarm < 0 || timeline_.mitigation < 0) return -1;
  return timeline_.mitigation - timeline_.alarm;
}

void DefenseController::coarse_tick() {
  const double util = tier_.window_utilization(last_integral_, config_.coarse_period);
  if (stage_ != DefenseStage::kMonitoring) return;
  if (cusum_.update(util)) {
    timeline_.alarm = sim_.now();
    enter_attribution();
  }
}

void DefenseController::enter_attribution() {
  stage_ = DefenseStage::kAttributing;
  vm_scores_.assign(host_.vm_count(), monitor::OnlineBurstScore{});
  fine_task_ = std::make_unique<PeriodicTask>(sim_, config_.attribution_period,
                                              [this] { attribution_tick(); });
  attribution_deadline_ =
      sim_.schedule_in(config_.attribution_window, [this] { conclude_attribution(); });
}

void DefenseController::attribution_tick() {
  // Host-level (hypervisor) visibility: per-VM memory activity. The lock
  // signal is weighted heavily — it is the scarce shared resource.
  for (std::size_t i = 0; i < vm_scores_.size(); ++i) {
    const auto vm = static_cast<cloud::VmId>(i);
    const double activity = 10.0 * host_.lock_duty(vm) + host_.demand(vm);
    vm_scores_[i].update(activity);
    ++attribution_samples_;
  }
}

void DefenseController::conclude_attribution() {
  if (fine_task_) fine_task_->stop();
  cloud::VmId best = cloud::kInvalidVm;
  double best_rank = 0.0;
  for (std::size_t i = 0; i < vm_scores_.size(); ++i) {
    const auto vm = static_cast<cloud::VmId>(i);
    if (vm == victim_vm_) continue;  // never accuse the protected VM
    const double score = vm_scores_[i].score();
    const double level = vm_scores_[i].level();
    const bool eligible = score >= config_.suspect_score_threshold ||
                          level >= config_.suspect_level_threshold;
    if (!eligible) continue;
    // Rank eligible VMs by combined burstiness and sustained pressure.
    const double rank = score + level / config_.suspect_level_threshold;
    if (rank > best_rank) {
      best_rank = rank;
      best = vm;
    }
  }
  if (best != cloud::kInvalidVm) {
    mitigate(best, best_rank);
  } else {
    // Inconclusive: back to cheap monitoring with a fresh baseline (the
    // alarm state is consumed).
    stage_ = DefenseStage::kMonitoring;
    cusum_.reset();
  }
}

void DefenseController::mitigate(cloud::VmId suspect, double score) {
  stage_ = DefenseStage::kMitigated;
  timeline_.mitigation = sim_.now();
  timeline_.suspect = suspect;
  timeline_.suspect_score = score;
  host_.set_memory_isolation(suspect, config_.isolation_max_lock_duty,
                             config_.isolation_max_demand_gbps);
}

}  // namespace memca::defense
