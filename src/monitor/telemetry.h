// One telemetry clock: a single fine-grained tick that reads every tier once.
//
// The paper's stealth result (Fig. 10) is a statement about sampling: one
// utilization integral read every 50 ms shows the millibottlenecks, and the
// same integral averaged to 1 s or 1 min hides them. TelemetryClock is that
// one reading. Once per window (one PeriodicTask) it reads each tier's
// resident count, window utilization (the busy-time integral differenced
// through one cursor per tier, see TierServer::window_utilization) and
// cumulative rejections, plus the coupling's capacity multiplier and the
// clients' RTO backlog, into one TelemetryFrame. It appends the frame to its
// own fine-grained monitor series — target-tier CPU utilization stamped at
// the window start, per-tier queue length stamped at the tick — and then
// hands it to the consumer its owner wired (the testbed's metrics scrape and
// flight recorder), so every plane sees the same numbers from the same
// instant. Resampling those series to 1 s / 1 min is how Fig. 10 shows the
// millibottlenecks disappearing from coarse monitoring.
//
// Ticks are simulator events and draw no randomness, so the frame stream is
// part of the deterministic event order, and the clock checkpoints and rolls
// back with the world.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/timeseries.h"
#include "sim/simulator.h"

namespace memca::cloud {
class CrossResourceModel;
}
namespace memca::queueing {
class NTierSystem;
}
namespace memca::workload {
class ClosedLoopClients;
}

namespace memca::monitor {

/// Tiers a frame can carry; the testbed has 3, one spare for ablations.
inline constexpr std::size_t kFrameMaxTiers = 4;

/// Everything one tick reads, all at the tick instant.
struct TelemetryFrame {
  /// Tick instant: the window [now - window, now) has just closed.
  SimTime now = 0;
  SimTime window = 0;
  std::size_t tiers = 0;
  /// Requests holding a thread in each tier.
  std::array<int, kFrameMaxTiers> resident{};
  /// Each tier's busy-worker fraction over the window, in [0, 1].
  std::array<double, kFrameMaxTiers> utilization{};
  /// Each tier's cumulative rejected-request count.
  std::array<std::int64_t, kFrameMaxTiers> rejected{};
  /// Capacity multiplier D(t) of the coupled tier (1 when uncoupled).
  double capacity_multiplier = 1.0;
  /// Client retransmissions scheduled but not yet fired.
  int rto_backlog = 0;
};

/// One fine-grained monitor signal: the series the clock appends to once
/// per tick (what the testbed's target_cpu() and queue_gauge(i) return).
class Channel {
 public:
  const TimeSeries& series() const { return series_; }

 private:
  friend class TelemetryClock;
  TimeSeries series_;
};

class TelemetryClock {
 public:
  /// Reads every tier of `system` once per `window`; `target_tier` names the
  /// tier whose utilization feeds target_cpu(). `coupling` and `clients`,
  /// when given, supply the frame's capacity multiplier and RTO backlog.
  TelemetryClock(Simulator& sim, const queueing::NTierSystem& system, std::size_t target_tier,
                 SimTime window, const cloud::CrossResourceModel* coupling = nullptr,
                 const workload::ClosedLoopClients* clients = nullptr);
  TelemetryClock(const TelemetryClock&) = delete;
  TelemetryClock& operator=(const TelemetryClock&) = delete;

  /// Called with every frame after the clock's own series are appended
  /// (construction-time wiring, not checkpointed).
  void on_frame(std::function<void(const TelemetryFrame&)> consumer) {
    consumer_ = std::move(consumer);
  }

  /// Starts ticking; the first frame closes one window after start(), and
  /// the busy cursors start from the tiers' integrals at start().
  void start();
  void stop();

  /// The latest frame (default readings before the first tick).
  const TelemetryFrame& frame() const { return frame_; }
  /// Target-tier CPU utilization per window, stamped at the window start.
  const Channel& target_cpu() const { return target_cpu_; }
  /// Resident count of tier `tier` (front first), stamped at the tick.
  const Channel& queue_length(std::size_t tier) const;

  /// Checkpoint: the pending tick, the busy cursors, the latest frame and
  /// the series lengths (append-only, so restore is a truncation).
  /// start() between a capture and its restore is not supported — the task
  /// must exist iff it existed at capture.
  struct Snapshot {
    bool has_task = false;
    PeriodicTask::Snapshot task;
    std::array<double, kFrameMaxTiers> busy_last{};
    TelemetryFrame frame;
    std::size_t target_cpu_size = 0;
    std::array<std::size_t, kFrameMaxTiers> queue_sizes{};
  };

  void capture(Snapshot& out) const;
  void restore(const Snapshot& snap);

 private:
  void tick();

  Simulator& sim_;
  const queueing::NTierSystem& system_;
  std::size_t target_tier_;
  const cloud::CrossResourceModel* coupling_;
  const workload::ClosedLoopClients* clients_;
  std::function<void(const TelemetryFrame&)> consumer_;
  std::unique_ptr<PeriodicTask> task_;
  /// Busy-integral cursor per tier (TierServer::window_utilization).
  std::array<double, kFrameMaxTiers> busy_last_{};
  TelemetryFrame frame_;
  Channel target_cpu_;
  std::vector<Channel> queue_lengths_;
};

}  // namespace memca::monitor
