// Cross-resource coupling: memory bandwidth → effective CPU capacity.
//
// This is the paper's central mechanism (Section II-A, IV-B): when the
// victim VM's achievable memory bandwidth drops below what its workload
// needs, its CPU stalls on memory and the tier's *service capacity* drops,
// even though no vCPU is shared with the adversary. The coupling exposes a
// capacity multiplier in (0, 1] — the paper's degradation index D, with
// C_on = D * C_off (Eq. 3) — and pushes updates whenever host contention
// changes.
#pragma once

#include <functional>

#include "cloud/host.h"
#include "common/check.h"

namespace memca::cloud {

struct CrossResourceParams {
  /// Bandwidth the victim's workload needs at full service capacity, GB/s.
  double victim_demand_gbps = 3.0;
  /// Lower bound on the multiplier: even fully starved of bandwidth, some
  /// fraction of the work is cache-resident and still proceeds.
  double multiplier_floor = 0.05;
};

class CrossResourceModel {
 public:
  /// Registers the victim's steady demand on the host and starts watching
  /// contention changes.
  CrossResourceModel(Host& host, VmId victim, CrossResourceParams params = {});

  /// Current capacity multiplier D in [floor, 1]. Recomputed from the host
  /// on every contention change (every host mutation notifies), so reading
  /// it is a load — the telemetry clock reads it on every tick.
  double capacity_multiplier() const { return multiplier_; }

  /// Registers a callback invoked with the new multiplier whenever host
  /// memory contention changes.
  void on_multiplier_change(std::function<void(double)> fn);

  VmId victim() const { return victim_; }
  const CrossResourceParams& params() const { return params_; }

  /// Checkpoint: the current multiplier and the observer count (the victim
  /// demand lives in the Host's snapshot, which restores without notifying).
  /// Observers added after the capture are dropped by restore().
  struct Snapshot {
    double multiplier = 1.0;
    std::size_t num_observers = 0;
  };

  void capture(Snapshot& out) const {
    out.multiplier = multiplier_;
    out.num_observers = observers_.size();
  }
  void restore(const Snapshot& snap) {
    MEMCA_CHECK(snap.num_observers <= observers_.size());
    multiplier_ = snap.multiplier;
    observers_.resize(snap.num_observers);
  }

 private:
  /// The multiplier the host's current contention implies.
  double compute_multiplier() const;

  Host& host_;
  VmId victim_;
  CrossResourceParams params_;
  double multiplier_ = 1.0;
  std::vector<std::function<void(double)>> observers_;
};

}  // namespace memca::cloud
