// High-resolution rolling timeline of the signals a millibottleneck leaves.
//
// One frame per flight-recorder tick (native 50 ms by default) holding the
// per-tier queue depths, the capacity multiplier D(t) (min and last sample
// in the window), per-tier drop deltas and the client RTO backlog — exactly
// the quantities the paper shows a 1 s monitor averages away (Fig. 10).
// Frames live in a small preallocated ring: pushing is allocation-free and
// the newest `capacity` frames are always available for an IncidentDetector
// to freeze when something fires.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/time.h"

namespace memca::flightrec {

/// Tiers a frame can carry; the testbed has 3, one spare for ablations.
inline constexpr std::size_t kTimelineMaxTiers = 4;

struct TimelineFrame {
  /// Window start (the previous tick); the window closes at start + resolution.
  SimTime start = 0;
  /// Queue depth (waiting + blocked-on-downstream) sampled at window close.
  std::array<std::uint32_t, kTimelineMaxTiers> queue_depth{};
  /// Front-tier-style rejections per tier during the window.
  std::array<std::uint32_t, kTimelineMaxTiers> tier_drops{};
  /// Capacity multiplier D(t) of the target tier: minimum and last sample.
  double capacity_min = 1.0;
  double capacity_last = 1.0;
  /// Retransmissions scheduled but not yet fired at window close.
  std::uint32_t rto_backlog = 0;
  /// Post-warmup completions with RT >= the VLRT threshold in the window.
  std::uint32_t vlrt_completions = 0;

  std::uint32_t drops_total() const {
    std::uint32_t sum = 0;
    for (const auto d : tier_drops) sum += d;
    return sum;
  }
};

/// Fixed-capacity frame ring; index 0 is the oldest *retained* frame.
class Timeline {
 public:
  explicit Timeline(std::size_t capacity);

  /// Overwrites the oldest frame once full; never allocates.
  void push(const TimelineFrame& frame);

  std::size_t capacity() const { return mask_ + 1; }
  std::size_t size() const { return total_ > mask_ + 1 ? mask_ + 1 : total_; }
  /// Frames ever pushed, including evicted ones.
  std::size_t total() const { return total_; }
  bool empty() const { return total_ == 0; }

  const TimelineFrame& operator[](std::size_t i) const {
    MEMCA_DCHECK(i < size());
    return frames_[(total_ - size() + i) & mask_];
  }
  const TimelineFrame& newest() const { return (*this)[size() - 1]; }

  /// Appends the retained frames whose window intersects [from, to] to
  /// `out`, oldest first. Frames already evicted are gone — a freeze
  /// captures at most capacity() frames of history.
  void extract(SimTime from, SimTime to, SimTime resolution,
               std::vector<TimelineFrame>& out) const;

  /// Checkpoint: frames are overwritten in place on wrap, so capture copies
  /// the retained window out and restore writes each frame back into the
  /// physical slot it came from (same scheme as a bounded TraceRecorder).
  struct Snapshot {
    std::size_t total = 0;
    std::vector<TimelineFrame> frames;
  };

  void capture(Snapshot& out) const {
    out.total = total_;
    const std::size_t n = size();
    out.frames.resize(n);
    for (std::size_t i = 0; i < n; ++i) out.frames[i] = (*this)[i];
  }

  void restore(const Snapshot& snap) {
    const std::size_t n = snap.frames.size();
    MEMCA_CHECK(n <= snap.total && n <= mask_ + 1);
    const std::size_t first = snap.total - n;
    for (std::size_t i = 0; i < n; ++i) frames_[(first + i) & mask_] = snap.frames[i];
    total_ = snap.total;
  }

 private:
  std::vector<TimelineFrame> frames_;
  std::size_t mask_ = 0;
  std::size_t total_ = 0;
};

}  // namespace memca::flightrec
