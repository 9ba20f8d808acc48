#include "monitor/elastic.h"

#include "common/check.h"
#include "common/timeseries.h"

namespace memca::monitor {

ElasticController::ElasticController(Simulator& sim, queueing::TierServer& tier,
                                     ElasticPolicy policy)
    : sim_(sim), tier_(tier), policy_(policy) {
  MEMCA_CHECK_MSG(policy_.evaluation_period > 0, "evaluation period must be positive");
  MEMCA_CHECK_MSG(policy_.consecutive_periods >= 1, "need at least one period");
  MEMCA_CHECK_MSG(policy_.workers_per_scaleout >= 1, "scale-out must add workers");
  MEMCA_CHECK_MSG(policy_.max_scaleouts >= 0, "max_scaleouts must be non-negative");
}

void ElasticController::start() {
  MEMCA_CHECK_MSG(task_ == nullptr, "controller already started");
  last_integral_ = tier_.busy_worker_time_us();
  task_ = std::make_unique<PeriodicTask>(sim_, policy_.evaluation_period,
                                         [this] { evaluate(); });
}

void ElasticController::stop() {
  if (task_) task_->stop();
}

void ElasticController::evaluate() {
  const double util = tier_.window_utilization(last_integral_, policy_.evaluation_period);
  observed_.append(sim_.now() - policy_.evaluation_period, util);

  if (sim_.now() < cooldown_until_) {
    streak_ = 0;
    low_streak_ = 0;
    return;
  }
  if (util > policy_.cpu_threshold) {
    ++streak_;
    low_streak_ = 0;
    if (streak_ >= policy_.consecutive_periods &&
        scaleouts() < policy_.max_scaleouts) {
      scale_out();
      streak_ = 0;
    }
  } else {
    streak_ = 0;
    if (policy_.scale_in_threshold > 0.0 && util < policy_.scale_in_threshold) {
      ++low_streak_;
      if (low_streak_ >= policy_.scale_in_consecutive && extra_replicas_ > 0) {
        scale_in();
        low_streak_ = 0;
      }
    } else {
      low_streak_ = 0;
    }
  }
}

void ElasticController::scale_in() {
  ++scaleins_;
  --extra_replicas_;
  tier_.remove_capacity(policy_.workers_per_scaleout, policy_.threads_per_scaleout);
  cooldown_until_ = sim_.now() + policy_.cooldown;
}

void ElasticController::scale_out() {
  ScaleOutEvent event;
  event.triggered_at = sim_.now();
  event.effective_at = sim_.now() + policy_.provisioning_delay;
  event.workers_added = policy_.workers_per_scaleout;
  events_.push_back(event);
  cooldown_until_ = event.effective_at + policy_.cooldown;
  const int workers = policy_.workers_per_scaleout;
  const int threads = policy_.threads_per_scaleout;
  sim_.schedule_at(event.effective_at, [this, workers, threads] {
    tier_.add_capacity(workers, threads);
    ++extra_replicas_;
  });
}

}  // namespace memca::monitor
