// A physical host with co-located VMs and their memory activity.
//
// The Host is the meeting point of the contention model: VMs register their
// current memory activity (streaming demand and/or bus-lock duty), and any
// component can ask what bandwidth a VM actually achieves right now. State
// changes notify observers so cross-resource couplings (memory bandwidth →
// CPU capacity) can react immediately — this is the mechanism by which an
// adversary VM's burst throttles the victim tier.
#pragma once

#include <algorithm>
#include <functional>
#include <vector>

#include "cloud/membw.h"
#include "cloud/topology.h"
#include "common/check.h"

namespace memca::cloud {

class Host {
 public:
  explicit Host(HostSpec spec, MemBwModelParams bw_params = {});

  /// Registers a VM on this host; returns its id.
  VmId add_vm(VmSpec spec);

  std::size_t vm_count() const { return vms_.size(); }
  const VmSpec& vm(VmId id) const;
  const HostSpec& spec() const { return spec_; }

  /// Sets the VM's current memory activity. Passing zeros clears it.
  void set_memory_activity(VmId id, double demand_gbps, double lock_duty = 0.0);
  /// Clears the VM's memory activity.
  void clear_memory_activity(VmId id) { set_memory_activity(id, 0.0, 0.0); }

  /// Hypervisor-level memory isolation (Heracles-style): caps the VM's
  /// *effective* bus-lock duty and streaming demand regardless of what the
  /// guest requests. The defense substrate's actuator.
  void set_memory_isolation(VmId id, double max_lock_duty, double max_demand_gbps);
  /// Removes the isolation caps.
  void clear_memory_isolation(VmId id);
  bool isolated(VmId id) const;

  /// Bandwidth the VM currently achieves, GB/s, summed over packages.
  double achieved_bandwidth(VmId id) const;
  /// The VM's currently registered demand, GB/s.
  double demand(VmId id) const;
  /// The VM's currently registered lock duty.
  double lock_duty(VmId id) const;

  /// True if any VM currently holds bus locks.
  bool any_lock_active() const;
  /// Aggregate demand currently registered on the host, GB/s.
  double total_demand() const;

  /// Registers a callback fired after any memory-activity change.
  void on_contention_change(std::function<void()> fn);

 private:
  struct VmState {
    VmSpec spec;
    double demand_gbps = 0.0;
    double lock_duty = 0.0;
    bool isolation = false;
    double max_lock_duty = 1.0;
    double max_demand_gbps = 1e9;

    double effective_demand() const {
      return isolation ? std::min(demand_gbps, max_demand_gbps) : demand_gbps;
    }
    double effective_lock_duty() const {
      return isolation ? std::min(lock_duty, max_lock_duty) : lock_duty;
    }
  };

  /// Streams contributed by all VMs to package `pkg`.
  std::vector<StreamDemand> package_streams(int pkg) const;
  void notify();

  HostSpec spec_;
  MemoryBandwidthModel bw_model_;
  std::vector<VmState> vms_;
  std::vector<std::function<void()>> observers_;

 public:
  /// Checkpoint of the host's mutable contention state: per-VM activity and
  /// isolation caps, plus the observer count (observers registered after the
  /// capture are dropped; earlier ones keep their bound closures). The VM
  /// roster must match — add_vm after a capture is not restorable.
  struct Snapshot {
    std::vector<VmState> vms;
    std::size_t num_observers = 0;
  };

  void capture(Snapshot& out) const {
    out.vms.assign(vms_.begin(), vms_.end());
    out.num_observers = observers_.size();
  }

  void restore(const Snapshot& snap) {
    MEMCA_CHECK(snap.vms.size() == vms_.size() &&
                snap.num_observers <= observers_.size());
    std::copy(snap.vms.begin(), snap.vms.end(), vms_.begin());
    observers_.resize(snap.num_observers);
  }
};

}  // namespace memca::cloud
