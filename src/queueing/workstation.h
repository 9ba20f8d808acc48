// A bank of workers executing work-based service with live speed scaling.
//
// Each worker serves one payload at a time; the payload is an opaque 32-bit
// token (the tiers pass request-pool slot indices) carrying an amount of
// work (microseconds at speed 1.0), and the station runs at a global speed
// multiplier. When the speed changes — the MemCA burst throttling the victim
// tier — remaining work of every in-flight service is re-scaled and its
// completion event rescheduled. This is what makes a 100 ms capacity dip
// interact correctly with millisecond-scale services.
//
// By default every in-flight service owns one completion event. Quantized
// mode (enable_batch_completions) instead rounds completion *instants* up
// onto a fixed microsecond grid, and every service of this station landing
// on one grid instant is a completion *group* — one simulator event fires
// the whole group and hands the freed payloads to a batch callback as a
// packed span, instead of one event per worker. This is a deliberate
// event-stream change (services run ≤ one quantum longer, batch members
// complete simultaneously); the default per-worker path stays
// byte-identical when the mode is off.
//
// The station also integrates busy-worker time, which is exactly what an
// OS-level CPU utilization monitor sees: a memory-stalled core counts as
// busy, so during a burst utilization shows transient saturation (Fig. 9b)
// even though throughput has collapsed.
#pragma once

#include <algorithm>
#include <vector>

#include "common/cache_line.h"
#include "common/inline_callback.h"
#include "sim/simulator.h"

namespace memca::queueing {

class WorkStation {
 public:
  /// `on_done` fires with the service's payload when it completes; the
  /// worker is already free when it runs.
  WorkStation(Simulator& sim, int workers, InlineFunction<void(std::uint32_t)> on_done);
  WorkStation(const WorkStation&) = delete;
  WorkStation& operator=(const WorkStation&) = delete;

  int workers() const { return static_cast<int>(slots_.size()) - retired_; }
  int busy() const { return busy_; }
  bool has_free_worker() const { return busy_ < workers(); }

  /// Adds `n` idle workers (elastic scale-out). The caller is responsible
  /// for re-pumping its wait queue afterwards.
  void add_workers(int n);

  /// Retires `n` workers (elastic scale-in). Idle workers retire
  /// immediately; busy ones finish their current request first, so
  /// `workers()` may exceed the target transiently.
  void remove_workers(int n);

  /// Starts serving `payload` with `work_us` microseconds of speed-1 work.
  /// Requires a free worker.
  void start(std::uint32_t payload, double work_us);

  /// Changes the station speed (must be > 0); rescales in-flight services.
  void set_speed(double speed);
  double speed() const { return speed_; }

  /// Switches the station into quantized grouped-completion mode (see file
  /// comment): completion instants round up onto the `quantum_us` grid and
  /// all same-instant completions fire through ONE simulator event, handing
  /// `on_batch` a packed span of payloads in service-start order (workers
  /// already freed when it runs). Call once, before any service starts.
  void enable_batch_completions(
      SimTime quantum_us, InlineFunction<void(const std::uint32_t*, std::size_t)> on_batch);
  SimTime quantum() const { return quantum_; }
  /// Completion groups currently armed (quantized mode; 0 otherwise).
  std::size_t pending_groups() const { return groups_.size(); }

  /// Integral of busy workers over time, in worker-microseconds. Divide a
  /// delta by (workers * window) to get utilization over that window.
  double busy_worker_time_us() const;

  /// Total services completed.
  std::int64_t completed() const { return completed_; }

 private:
  /// The completion closure scheduled for a slot's in-flight service.
  /// Trivially copyable, so the simulator stores it inline with no manager;
  /// built once per slot at construction (not re-materialised per start()).
  struct CompletionFire {
    WorkStation* station = nullptr;
    std::uint32_t slot = 0;
    void operator()() const { station->complete(slot); }
  };

  /// One worker. Cache-line aligned so firing a completion (flags + payload
  /// + busy-time fields + the done handle) dirties exactly one line and
  /// neighbouring workers never false-share under a future parallel drain.
  struct alignas(kCacheLineSize) Slot {
    bool busy = false;
    bool retired = false;
    std::uint32_t payload = 0;
    double remaining_work = 0.0;  // microseconds at speed 1.0
    SimTime last_update = 0;
    EventHandle done;
    CompletionFire fire;
  };
  static_assert(sizeof(Slot) == kCacheLineSize,
                "worker slot should pack into one cache line");

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// One armed completion group (quantized mode): the grid instant, its one
  /// scheduled event, and an intrusive member list threaded through
  /// group_next_ in service-start order. Trivially copyable, so snapshots
  /// value-copy the table and the EventHandle round-trips by value.
  struct Group {
    SimTime when = 0;
    std::uint32_t head = kNoSlot;
    std::uint32_t tail = kNoSlot;
    EventHandle ev;
  };
  /// The group-completion closure: finds the group by its instant (at most
  /// one group per instant per station) and drains it.
  struct GroupFire {
    WorkStation* station = nullptr;
    SimTime when = 0;
    void operator()() const { station->fire_group(when); }
  };

  void accrue_busy_time();
  /// (Re)binds the per-slot completion thunks; called whenever slots_ grows.
  void bind_completion_thunks(std::size_t first);
  void schedule_completion(std::size_t slot_index);
  void complete(std::size_t slot_index);
  /// Quantized mode: appends the slot to the group at `when`, arming the
  /// group's single event when the instant is new.
  void join_group(std::uint32_t slot_index, SimTime when);
  /// Quantized mode: frees every member of the group at `when` (in
  /// service-start order), then delivers the payload span to on_batch_done_.
  void fire_group(SimTime when);
  /// Reserves group/scratch capacity for the current worker count so the
  /// quantized hot path never allocates.
  void reserve_batch_storage();

  // Availability bitmap over slots_ (bit i set iff slot i is idle and not
  // retired): start() finds its worker with a count-trailing-zeros instead
  // of walking one cache line per slot. The bit scan picks the lowest free
  // index, exactly the slot the linear scan would have chosen, so completion
  // scheduling order — and with it bit-reproducibility — is unchanged.
  void mask_set(std::size_t i) {
    free_mask_[i >> 6] |= std::uint64_t{1} << (i & 63);
  }
  void mask_clear(std::size_t i) {
    free_mask_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }
  void rebuild_free_mask();

  Simulator& sim_;
  InlineFunction<void(std::uint32_t)> on_done_;
  std::vector<Slot> slots_;
  std::vector<std::uint64_t> free_mask_;
  // -- quantized grouped-completion state (empty/unused when quantum_ == 0) --
  /// Completion-instant grid step; 0 = exact per-worker completions.
  SimTime quantum_ = 0;
  InlineFunction<void(const std::uint32_t*, std::size_t)> on_batch_done_;
  /// Armed groups (at most one per distinct grid instant; ≤ busy workers).
  std::vector<Group> groups_;
  /// Intrusive per-slot group links (lane parallel to slots_, kept out of
  /// the Slot so the worker record stays one cache line).
  std::vector<std::uint32_t> group_next_;
  /// Payload span handed to on_batch_done_; reused across fires.
  std::vector<std::uint32_t> batch_buf_;
  /// set_speed staging for the group events' bulk cancel; reused.
  std::vector<EventHandle> cancel_scratch_;
  double speed_ = 1.0;
  int busy_ = 0;
  int retired_ = 0;
  int pending_retire_ = 0;
  std::int64_t completed_ = 0;
  // busy-time integral
  double busy_time_us_ = 0.0;
  SimTime busy_last_change_ = 0;

 public:
  /// Checkpoint of the worker bank. Slot records are value-copied: the
  /// `done` EventHandle stays valid because the simulator restores the same
  /// arena occupancy, the `fire` thunk points back at this station, and the
  /// payload at a pool slot whose body never relocates. Elastic growth after
  /// a capture is not restorable (restore checks the worker count).
  struct Snapshot {
    std::vector<Slot> slots;
    /// Quantized mode: the armed groups (their EventHandles stay valid for
    /// the same reason `done` does) and the member-link lane.
    std::vector<Group> groups;
    std::vector<std::uint32_t> group_next;
    double speed = 1.0;
    int busy = 0;
    int retired = 0;
    int pending_retire = 0;
    std::int64_t completed = 0;
    double busy_time_us = 0.0;
    SimTime busy_last_change = 0;
  };

  void capture(Snapshot& out) const {
    out.slots.assign(slots_.begin(), slots_.end());
    out.groups.assign(groups_.begin(), groups_.end());
    out.group_next.assign(group_next_.begin(), group_next_.end());
    out.speed = speed_;
    out.busy = busy_;
    out.retired = retired_;
    out.pending_retire = pending_retire_;
    out.completed = completed_;
    out.busy_time_us = busy_time_us_;
    out.busy_last_change = busy_last_change_;
  }

  void restore(const Snapshot& snap) {
    MEMCA_CHECK_MSG(snap.slots.size() == slots_.size(),
                    "cannot roll back across an elastic worker-count change");
    std::copy(snap.slots.begin(), snap.slots.end(), slots_.begin());
    rebuild_free_mask();
    // groups_ capacity was reserved for the worker count at capture time, so
    // this assign never allocates on a post-capture restore.
    groups_.assign(snap.groups.begin(), snap.groups.end());
    std::copy(snap.group_next.begin(), snap.group_next.end(), group_next_.begin());
    speed_ = snap.speed;
    busy_ = snap.busy;
    retired_ = snap.retired;
    pending_retire_ = snap.pending_retire;
    completed_ = snap.completed;
    busy_time_us_ = snap.busy_time_us;
    busy_last_change_ = snap.busy_last_change;
  }
};

}  // namespace memca::queueing
