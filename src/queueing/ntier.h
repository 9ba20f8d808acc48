// The n-tier system: a chain of TierServers with synchronous RPC coupling.
//
// Requests live in the system's RequestPool from submission to reply, so
// completion delivery is pointer identity — the front tier's reply sink
// hands back the exact Request* that travelled the chain; there is no
// per-request ownership table to probe. Exposes per-tier handles for
// monitoring and for the attack coupling (set_speed_multiplier on the
// bottleneck tier).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "queueing/system.h"
#include "queueing/tier.h"

namespace memca::queueing {

/// Builds the TierServer (or a derived variant) for one tier position. Lets
/// a caller above the queueing layer (e.g. the testbed swapping in the OLTP
/// lock-table tier) inject variants without queueing/ depending on them.
/// Returning nullptr means "use the default FIFO TierServer".
using TierFactory = std::function<std::unique_ptr<TierServer>(
    Simulator& sim, RequestPool& pool, const TierConfig& config, std::size_t index)>;

class NTierSystem : public RequestSystem {
 public:
  NTierSystem(Simulator& sim, std::vector<TierConfig> tiers);
  /// As above, but each tier is built through `factory` (nullptr results
  /// fall back to the base TierServer).
  NTierSystem(Simulator& sim, std::vector<TierConfig> tiers, const TierFactory& factory);

  /// Submits a pool-owned request. Resets its per-tier stamp lane (demand_us
  /// must already have one entry per tier). Returns false if dropped; the
  /// request is released back to the pool after the drop callback.
  bool submit(Request* req) override;

  /// A submit admits iff the front tier has a free thread.
  bool accepting() const override { return !tiers_.front()->full(); }

  /// Also counts the n rejections on the front tier.
  void reject_at_door(std::int64_t n) override;

  std::size_t num_tiers() const { return tiers_.size(); }
  std::size_t depth() const override { return tiers_.size(); }
  TierServer& tier(std::size_t i);
  const TierServer& tier(std::size_t i) const;
  /// The last tier (the usual bottleneck — MySQL in the RUBBoS topology).
  TierServer& back_tier() { return tier(tiers_.size() - 1); }

  /// Paper Condition 1: Q_1 > Q_2 > ... > Q_n.
  bool satisfies_condition1() const;

  /// Attaches the recorder to the system and every tier.
  void set_trace(trace::TraceRecorder* recorder) override;

  /// Checkpoint of the whole chain: pool + counters + every tier. Tier
  /// wiring (downstream pointers, reply sink) is construction-time and not
  /// captured; restore() requires the same tier count it was taken from.
  struct Snapshot {
    CountersSnapshot counters;
    std::vector<TierServer::Snapshot> tiers;
  };

  void capture(Snapshot& out) const {
    capture_counters(out.counters);
    out.tiers.resize(tiers_.size());
    for (std::size_t i = 0; i < tiers_.size(); ++i) tiers_[i]->capture(out.tiers[i]);
  }

  void restore(const Snapshot& snap) {
    MEMCA_CHECK(snap.tiers.size() == tiers_.size());
    restore_counters(snap.counters);
    for (std::size_t i = 0; i < tiers_.size(); ++i) tiers_[i]->restore(snap.tiers[i]);
  }

 private:
  void on_reply(Request* req);
  /// Quantized mode: delivers one completion group's replies (front tier's
  /// batch reply sink) through on_complete_batch_ when set, else per request.
  void on_reply_batch(Request* const* reqs, std::size_t n);

  Simulator& sim_;
  std::vector<std::unique_ptr<TierServer>> tiers_;
};

}  // namespace memca::queueing
