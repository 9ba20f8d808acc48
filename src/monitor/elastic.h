// Live elastic-scaling controller (AWS Auto Scaling, Section V-B).
//
// Unlike `evaluate_autoscaler` (which replays a recorded series offline),
// this component runs *inside* the simulation and actually scales the
// target tier out when its policy fires: after a provisioning delay
// (instance launch time), the tier gains workers and thread capacity.
//
// This is the substrate for the paper's headline elasticity claim: a
// flooding attack is absorbed by scale-out (Berkeley's "serve the attack
// traffic" prediction), a brute-force memory attack at least triggers the
// response, but MemCA never fires the policy at all — the cluster pays for
// the attack in tail latency instead of alarms.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/time.h"
#include "common/timeseries.h"
#include "queueing/tier.h"
#include "sim/simulator.h"

namespace memca::monitor {

struct ElasticPolicy {
  /// Evaluation period (CloudWatch: 1 minute).
  SimTime evaluation_period = kMinute;
  /// Average-utilization trigger threshold.
  double cpu_threshold = 0.85;
  /// Consecutive breaching periods required.
  int consecutive_periods = 1;
  /// Instance launch + warm-up time before new capacity serves traffic.
  SimTime provisioning_delay = kMinute;
  /// Workers added per scale-out (one replica's vCPUs).
  int workers_per_scaleout = 2;
  /// Thread-limit growth per scale-out (the replica's connection pool).
  int threads_per_scaleout = 30;
  /// Upper bound on scale-outs (account limits / budget).
  int max_scaleouts = 4;
  /// Cooldown after a scale-out during which the policy does not re-fire.
  SimTime cooldown = kMinute;
  /// Scale back in when average utilization stays below this threshold for
  /// `scale_in_consecutive` periods (0 disables scale-in). Only capacity
  /// this controller added is ever removed.
  double scale_in_threshold = 0.0;
  int scale_in_consecutive = 3;
};

struct ScaleOutEvent {
  SimTime triggered_at = 0;
  SimTime effective_at = 0;
  int workers_added = 0;
};

class ElasticController {
 public:
  /// Watches `tier`'s busy-time integral and scales it out per `policy`.
  ElasticController(Simulator& sim, queueing::TierServer& tier, ElasticPolicy policy = {});
  ElasticController(const ElasticController&) = delete;
  ElasticController& operator=(const ElasticController&) = delete;

  void start();
  void stop();

  const std::vector<ScaleOutEvent>& events() const { return events_; }
  int scaleouts() const { return static_cast<int>(events_.size()); }
  int scaleins() const { return scaleins_; }
  /// Utilization the policy observed in each evaluation period.
  const TimeSeries& observed() const { return observed_; }

 private:
  void evaluate();
  void scale_out();
  void scale_in();

  Simulator& sim_;
  queueing::TierServer& tier_;
  ElasticPolicy policy_;
  std::unique_ptr<PeriodicTask> task_;
  double last_integral_ = 0.0;
  int streak_ = 0;
  int low_streak_ = 0;
  SimTime cooldown_until_ = 0;
  int extra_replicas_ = 0;
  int scaleins_ = 0;
  std::vector<ScaleOutEvent> events_;
  TimeSeries observed_;
};

}  // namespace memca::monitor
