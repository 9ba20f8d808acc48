#include "monitor/telemetry.h"

#include "cloud/contention.h"
#include "common/check.h"
#include "queueing/ntier.h"
#include "workload/clients.h"

namespace memca::monitor {

TelemetryClock::TelemetryClock(Simulator& sim, const queueing::NTierSystem& system,
                               std::size_t target_tier, SimTime window,
                               const cloud::CrossResourceModel* coupling,
                               const workload::ClosedLoopClients* clients)
    : sim_(sim),
      system_(system),
      target_tier_(target_tier),
      coupling_(coupling),
      clients_(clients),
      queue_lengths_(system.num_tiers()) {
  MEMCA_CHECK_MSG(window > 0, "telemetry window must be positive");
  MEMCA_CHECK_MSG(system.num_tiers() <= kFrameMaxTiers, "too many tiers for a telemetry frame");
  MEMCA_CHECK_MSG(target_tier < system.num_tiers(), "target tier out of range");
  frame_.window = window;
  frame_.tiers = system.num_tiers();
}

void TelemetryClock::start() {
  MEMCA_CHECK_MSG(task_ == nullptr, "telemetry clock already started");
  for (std::size_t i = 0; i < frame_.tiers; ++i) {
    busy_last_[i] = system_.tier(i).busy_worker_time_us();
  }
  task_ = std::make_unique<PeriodicTask>(sim_, frame_.window, [this] { tick(); });
}

void TelemetryClock::stop() {
  if (task_ != nullptr) task_->stop();
}

const Channel& TelemetryClock::queue_length(std::size_t tier) const {
  MEMCA_CHECK(tier < queue_lengths_.size());
  return queue_lengths_[tier];
}

void TelemetryClock::tick() {
  frame_.now = sim_.now();
  for (std::size_t i = 0; i < frame_.tiers; ++i) {
    const queueing::TierServer& tier = system_.tier(i);
    frame_.resident[i] = tier.resident();
    frame_.utilization[i] = tier.window_utilization(busy_last_[i], frame_.window);
    frame_.rejected[i] = tier.rejected();
  }
  if (coupling_ != nullptr) frame_.capacity_multiplier = coupling_->capacity_multiplier();
  if (clients_ != nullptr) frame_.rto_backlog = clients_->rto_backlog();

  target_cpu_.series_.append(frame_.now - frame_.window, frame_.utilization[target_tier_]);
  for (std::size_t i = 0; i < frame_.tiers; ++i) {
    queue_lengths_[i].series_.append(frame_.now, static_cast<double>(frame_.resident[i]));
  }
  if (consumer_) consumer_(frame_);
}

void TelemetryClock::capture(Snapshot& out) const {
  out.has_task = task_ != nullptr;
  if (task_ != nullptr) task_->capture(out.task);
  out.busy_last = busy_last_;
  out.frame = frame_;
  out.target_cpu_size = target_cpu_.series_.size();
  for (std::size_t i = 0; i < queue_lengths_.size(); ++i) {
    out.queue_sizes[i] = queue_lengths_[i].series_.size();
  }
}

void TelemetryClock::restore(const Snapshot& snap) {
  MEMCA_CHECK(snap.has_task == (task_ != nullptr));
  if (task_ != nullptr) task_->restore(snap.task);
  busy_last_ = snap.busy_last;
  frame_ = snap.frame;
  target_cpu_.series_.truncate(snap.target_cpu_size);
  for (std::size_t i = 0; i < queue_lengths_.size(); ++i) {
    queue_lengths_[i].series_.truncate(snap.queue_sizes[i]);
  }
}

}  // namespace memca::monitor
