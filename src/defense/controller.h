// Staged defense controller — the "significant future research" direction
// the paper closes with, built on this repo's substrate.
//
// Pipeline (modelled on how a provider could actually deploy it):
//
//   1. kMonitoring  — cheap, always-on: 1-second utilization samples of the
//      protected tier feed a streaming CUSUM. MemCA cannot dodge this
//      without giving up damage: the attack *works* by stealing average
//      capacity, and that mean shift is exactly what CUSUM accumulates.
//   2. kAttributing — after an alarm, escalate to fine-grained (50 ms)
//      host-level sampling of every co-located VM's memory activity, and
//      score each VM's burstiness. ON-OFF attackers score high; steady
//      neighbors score low. This is the expensive stage, but it only runs
//      after suspicion — resolving the paper's "fine monitoring costs too
//      much to run everywhere" objection.
//   3. kMitigated   — apply hypervisor memory isolation (Heracles-style
//      lock-duty/bandwidth caps) to the top suspect. The victim tier's
//      capacity recovers within one burst interval.
//
// The controller records its full timeline (alarm, attribution, mitigation,
// suspect) so benches can report time-to-detect and time-to-mitigate, and
// whether an innocent neighbor was collaterally isolated.
#pragma once

#include <memory>
#include <vector>

#include "cloud/host.h"
#include "monitor/detector.h"
#include "queueing/tier.h"
#include "sim/simulator.h"

namespace memca::defense {

struct DefenseConfig {
  /// Always-on utilization sampling period (stage 1).
  SimTime coarse_period = sec(std::int64_t{1});
  monitor::CusumConfig cusum;
  /// Fine host-level sampling period while attributing (stage 2).
  SimTime attribution_period = msec(50);
  /// How long to observe co-located VMs before accusing one.
  SimTime attribution_window = sec(std::int64_t{10});
  /// Minimum burstiness score to accuse a VM (catches ON-OFF attackers).
  double suspect_score_threshold = 0.5;
  /// Minimum sustained lock-weighted activity level to accuse a VM
  /// (catches constant brute-force attackers that are not bursty at all).
  /// The activity signal is 10 x lock_duty + demand_gbps, so a sustained
  /// locker scores ~9.5 while an ordinary streaming neighbor stays well
  /// below this.
  double suspect_level_threshold = 6.0;
  /// Isolation caps applied to the suspect (stage 3).
  double isolation_max_lock_duty = 0.05;
  double isolation_max_demand_gbps = 2.0;
};

enum class DefenseStage { kMonitoring, kAttributing, kMitigated };

const char* to_string(DefenseStage stage);

struct DefenseTimeline {
  SimTime started = 0;
  SimTime alarm = -1;        // CUSUM fired
  SimTime mitigation = -1;   // isolation applied
  cloud::VmId suspect = cloud::kInvalidVm;
  /// Highest burst score at accusation time.
  double suspect_score = 0.0;
};

class DefenseController {
 public:
  /// Protects `victim_tier` (whose VM is `victim_vm` on `host`).
  DefenseController(Simulator& sim, queueing::TierServer& victim_tier, cloud::Host& host,
                    cloud::VmId victim_vm, DefenseConfig config = {});
  DefenseController(const DefenseController&) = delete;
  DefenseController& operator=(const DefenseController&) = delete;

  void start();
  void stop();

  DefenseStage stage() const { return stage_; }
  const DefenseTimeline& timeline() const { return timeline_; }
  /// Time from attack-visible alarm to applied mitigation (-1 if n/a).
  SimTime time_to_mitigate() const;
  /// Fine-grained samples taken (the cost of stage 2).
  std::int64_t attribution_samples() const { return attribution_samples_; }

 private:
  void coarse_tick();
  void enter_attribution();
  void attribution_tick();
  void conclude_attribution();
  void mitigate(cloud::VmId suspect, double score);

  Simulator& sim_;
  queueing::TierServer& tier_;
  cloud::Host& host_;
  cloud::VmId victim_vm_;
  DefenseConfig config_;

  DefenseStage stage_ = DefenseStage::kMonitoring;
  DefenseTimeline timeline_;
  monitor::OnlineCusum cusum_;
  double last_integral_ = 0.0;
  std::unique_ptr<PeriodicTask> coarse_task_;
  std::unique_ptr<PeriodicTask> fine_task_;
  EventHandle attribution_deadline_;
  std::vector<monitor::OnlineBurstScore> vm_scores_;
  std::int64_t attribution_samples_ = 0;
};

}  // namespace memca::defense
