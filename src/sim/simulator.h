// Deterministic discrete-event simulator.
//
// Single-threaded event loop over a pending queue keyed by (time, sequence
// number): an 8-ary arrival heap, a sorted run and a timing wheel (see
// below). Ties at the same instant fire in scheduling order, which makes
// every run bit-reproducible. Components schedule closures; an EventHandle
// lets a holder cancel a pending event (used e.g. to preempt an in-flight
// service completion when the server's speed changes).
//
// Hot-path design: closures live in a pooled slot arena (fixed-size chunks
// recycled through a free list — chunks are never relocated, so growing the
// pool never moves a live closure) as allocation-free InlineCallbacks. The
// pending queue holds trivially-copyable 24-byte (time, seq, slot) records
// in two stages: new events enter an 8-ary arrival heap, and the run loop
// drains through a sorted run consumed by a bare cursor increment. When the
// arrival heap outgrows half of the sorted remainder it is flushed — sorted
// and merged into the run — so a bulk-scheduled workload pays O(log) once per
// event at the flush instead of a full-depth sift per pop, while fine-grained
// interleaved scheduling (a periodic tick, a self-rescheduling server) keeps
// the tiny heap and never flushes. The scheduling sequence number doubles as
// the slot generation: a handle (or a stale queue entry) matches its slot
// only while the slot still carries the same seq, which makes cancellation
// O(1) and slot reuse safe. Cancelled events are dropped lazily — either when
// their entry surfaces or in a bulk compaction pass once they outnumber the
// live entries.
//
// Coarse timers (client retransmission RTOs, think-time wakeups — delays of
// 131 ms and up) bypass the queue entirely and park in a 3-level hierarchical
// timing wheel (64 buckets/level, 65.5 ms base tick): insertion is an index
// computation and cancellation never touches the heap, so the thousands of
// mostly-cancelled RTO timers a closed-loop client population arms never
// inflate the sift depth of the short-horizon queue. Wheel buckets cascade
// down a level as the frontier reaches them; a level-0 bucket is sorted and
// merged into the sorted run (a plain copy when the run is consumed)
// strictly before any event at or past the bucket's start fires, so the
// arrival heap holds only short-delay events, and the global (time, seq)
// firing order — and with it bit-reproducibility — is identical to the
// pure-heap engine.
//
// Reserved sequence numbers let a component keep its own agenda of timers
// and arm only its earliest one (the cohort clients keep their think tick,
// the tick's sub-slot sends and the RTO ledger's attempt levels this way).
// reserve_seq() takes the seq a timer's own event would have had when the
// timer is set; schedule_reserved() schedules the event under that seq once
// the timer heads the agenda. A reserved-seq event may lie at the current
// instant only with a seq later than the event that fired last, so no event
// behind it at its instant has fired yet and every event keeps the
// (time, seq) slot it would have had. From inside an event, first_at_now()
// says whether (now(), seq) comes before every queued event; when it does,
// the component may run the timer's work inline and retire the seq with
// consume_reserved() instead of scheduling it. The query reads only the
// arrival-heap front and the sorted-run head: while an event fires no wheel
// entry lies at now(), because drain() releases every wheel bucket up to
// the firing instant before the event fires, and an insert lands at least
// two level-0 ticks ahead.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <vector>

#include "common/check.h"
#include "common/inline_callback.h"
#include "common/time.h"

namespace memca {

class Simulator;

/// Cancellation token for a scheduled event. Default-constructed handles are
/// inert. Cancelling an already-fired or already-cancelled event is a no-op.
/// Handles are cheap to copy and must not outlive their Simulator.
class EventHandle {
 public:
  EventHandle() = default;

  /// Prevents the event from firing. Safe to call at any time.
  void cancel();
  /// True if the event is still pending (not fired, not cancelled).
  bool pending() const;

 private:
  friend class Simulator;
  EventHandle(Simulator* sim, std::uint32_t slot, std::uint64_t seq)
      : sim_(sim), slot_(slot), seq_(seq) {}

  Simulator* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint64_t seq_ = 0;
};

class Simulator {
 public:
  Simulator() = default;
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedules `fn` to run at absolute time `when` (>= now). The callable is
  /// constructed directly inside its event slot (no intermediate move), so
  /// this is defined inline; see InlineCallback for the storage rules.
  template <typename F>
  EventHandle schedule_at(SimTime when, F&& fn) {
    return schedule_impl(when, next_seq_++, std::forward<F>(fn));
  }
  /// Schedules `fn` to run `delay` from now (delay >= 0).
  template <typename F>
  EventHandle schedule_in(SimTime delay, F&& fn) {
    MEMCA_CHECK_MSG(delay >= 0, "delay must be non-negative");
    return schedule_impl(now_ + delay, next_seq_++, std::forward<F>(fn));
  }

  /// Takes the next scheduling sequence number without scheduling anything;
  /// schedule_reserved() later uses it (see the file comment).
  std::uint64_t reserve_seq() {
    ++reserved_;
    return next_seq_++;
  }
  /// Schedules `fn` at `when` (>= now) under `seq`, a sequence number that
  /// reserve_seq() handed out and no event has used yet. Among events at
  /// `when` it fires where an event scheduled at the reservation would have.
  /// Checked: `when` lies in the future, or at now() with `seq` later than
  /// the event that fired last; `seq` was handed out; and a reservation is
  /// outstanding.
  template <typename F>
  EventHandle schedule_reserved(SimTime when, std::uint64_t seq, F&& fn) {
    check_reserved(when, seq);
    --reserved_;
    return schedule_impl(when, seq, std::forward<F>(fn));
  }
  /// True when (now(), seq) comes before every queued event, so work
  /// reserved under `seq` at now() may run inline. A cancelled entry still
  /// counts as queued: the answer may be a needless "no", never a wrong
  /// "yes".
  bool first_at_now(std::uint64_t seq) const {
    MEMCA_DCHECK(!wheel_holds(now_));
    const Event at{now_, seq, 0};
    return (heap_.empty() || earlier(at, heap_.front())) &&
           (cursor_ == sorted_.size() || earlier(at, sorted_[cursor_]));
  }
  /// Retires reservation `seq` without scheduling it: its owner runs the
  /// reserved work inline at (now(), seq), which is sound only while
  /// first_at_now(seq) holds. Checked like schedule_reserved() at now(). The
  /// work is no event: events_executed() does not count it.
  void consume_reserved(std::uint64_t seq) {
    check_reserved(now_, seq);
    MEMCA_DCHECK(first_at_now(seq));
    --reserved_;
    seq_floor_ = seq + 1;
  }

 private:
  template <typename F>
  EventHandle schedule_impl(SimTime when, std::uint64_t seq, F&& fn) {
    static_assert(std::is_invocable_r_v<void, std::decay_t<F>&>,
                  "scheduled callback must be invocable as void()");
    MEMCA_CHECK_MSG(when >= now_, "cannot schedule an event in the past");
    if constexpr (std::is_same_v<std::decay_t<F>, InlineCallback>) {
      MEMCA_CHECK_MSG(static_cast<bool>(fn), "cannot schedule an empty callback");
    }
    std::uint32_t index;
    if (!free_slots_.empty()) {
      index = free_slots_.back();
      free_slots_.pop_back();
      Slot& s = slot(index);
      if constexpr (std::is_same_v<std::decay_t<F>, InlineCallback>) {
        s.fn = std::forward<F>(fn);
      } else {
        s.fn.emplace(std::forward<F>(fn));
      }
      s.seq_live = occupant_key(seq);
    } else {
      index = grow_slot(std::forward<F>(fn), seq);
    }
    if (when - now_ >= kWheelMinDelay) {
      wheel_insert(Event{when, seq, index});
    } else {
      heap_push(Event{when, seq, index});
    }
    ++live_pending_;
    if (live_pending_ > pending_high_water_) pending_high_water_ = live_pending_;
    return EventHandle(this, index, seq);
  }

 public:

  /// Cancels `n` handles in one pass. Equivalent to calling cancel() on each,
  /// but the liveness bookkeeping is settled once and the lazy-sweep decision
  /// (maybe_compact) runs once at the end instead of per handle — the batch
  /// counterpart the grouped-completion and RTO paths use when a whole batch
  /// of timers dies at one instant. Works on heap- and wheel-parked events
  /// alike; already-fired/cancelled/empty handles are skipped.
  void cancel_bulk(const EventHandle* handles, std::size_t n);

  /// Runs events until the queue is empty or the clock would pass `end`;
  /// afterwards now() == end (events exactly at `end` do fire).
  void run_until(SimTime end);
  /// Runs for `duration` from the current time.
  void run_for(SimTime duration) { run_until(now_ + duration); }
  /// Runs until the event queue is fully drained.
  void run_all();

  /// Number of events executed so far.
  std::uint64_t events_executed() const { return executed_; }
  /// Number of live (non-cancelled) events currently pending.
  std::size_t pending_events() const { return live_pending_; }
  /// Cancelled events not yet swept from the queue; the raw entry count is
  /// pending_events() + cancelled_pending().
  std::size_t cancelled_pending() const { return cancelled_pending_; }
  /// High-water mark of live pending events (event-queue depth), for the
  /// engine self-profile in run reports.
  std::size_t pending_high_water() const { return pending_high_water_; }
  /// Slots ever allocated in the closure arena — the callback pool's
  /// occupancy high-water mark (the pool never shrinks).
  std::uint32_t pool_slots() const { return num_slots_; }
  /// Entries currently parked in the timing wheel (live + not-yet-swept
  /// cancelled); introspection for tests and benchmarks.
  std::size_t wheel_pending() const { return wheel_entries_; }

 private:
  friend class EventHandle;

  struct Event {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static_assert(sizeof(Event) == 24, "queue entries should stay 24 bytes");
  /// Min-heap order: earliest time first, scheduling order within a tie.
  static bool earlier(const Event& a, const Event& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
  /// earlier() as a function object, for the std:: sort and merge.
  struct Earlier {
    bool operator()(const Event& a, const Event& b) const { return earlier(a, b); }
  };
  /// One pooled event: the closure plus the occupant's generation word
  /// (seq << 1 | live). Exactly one cache line, so scheduling or firing an
  /// event touches a single line of the arena.
  struct Slot {
    InlineCallback fn;
    std::uint64_t seq_live;
  };
  static_assert(sizeof(Slot) == 64, "event slot should be one cache line");

  static constexpr std::uint64_t occupant_key(std::uint64_t seq) {
    return (seq << 1) | 1u;
  }

  Slot& slot(std::uint32_t index) {
    return *std::launder(reinterpret_cast<Slot*>(
        chunks_[index >> kChunkShift].get() + sizeof(Slot) * (index & kChunkMask)));
  }
  const Slot& slot(std::uint32_t index) const {
    return *std::launder(reinterpret_cast<const Slot*>(
        chunks_[index >> kChunkShift].get() + sizeof(Slot) * (index & kChunkMask)));
  }
  bool event_pending(std::uint32_t index, std::uint64_t seq) const {
    return index < num_slots_ && slot(index).seq_live == occupant_key(seq);
  }
  void check_reserved(SimTime when, std::uint64_t seq) const {
    MEMCA_CHECK_MSG(when > now_ || (when == now_ && seq >= seq_floor_),
                    "a reserved-seq event must lie after the event that fired last");
    MEMCA_CHECK_MSG(seq < next_seq_ && reserved_ > 0, "seq was never reserved");
  }
  void cancel_event(std::uint32_t slot, std::uint64_t seq);
  void release_slot(std::uint32_t slot);

  /// Pool-growth slow path: appends a slot (allocating a chunk when the last
  /// one fills) and constructs the callable in it.
  template <typename F>
  std::uint32_t grow_slot(F&& fn, std::uint64_t seq) {
    MEMCA_CHECK_MSG(num_slots_ < 0xffffffffu, "event slot pool exhausted");
    const std::uint32_t index = num_slots_++;
    // Compare against the chunks actually held, not the index alignment: a
    // checkpoint rollback shrinks num_slots_ while keeping every chunk, so
    // regrowth must reuse the existing chunk instead of appending another.
    if ((index >> kChunkShift) >= chunks_.size()) add_chunk();
    unsigned char* raw =
        chunks_[index >> kChunkShift].get() + sizeof(Slot) * (index & kChunkMask);
    ::new (static_cast<void*>(raw))
        Slot{InlineCallback(std::forward<F>(fn)), occupant_key(seq)};
    return index;
  }
  void add_chunk();
  /// Sweeps cancelled entries out of the queue once they outnumber live ones.
  void maybe_compact();
  /// Parks a coarse-timer event in the wheel (falls back to the heap past the
  /// wheel horizon). `ev.time` must be >= wheel_time_, which the
  /// kWheelMinDelay routing guarantees.
  void wheel_insert(const Event& ev);
  /// Releases/cascades wheel buckets whose start is <= `limit`, in time
  /// order, returning true as soon as a level-0 bucket has been merged into
  /// the sorted run (or a cascade fell back to the heap) so the caller
  /// re-picks the earliest event. Returns false once every wheel event at or
  /// before `limit` is queued.
  bool advance_wheel(SimTime limit);
  /// Start time and level of the earliest occupied wheel bucket; start is
  /// max() and level -1 when the wheel is empty.
  struct WheelBucket {
    SimTime start;
    int level;
  };
  WheelBucket wheel_earliest() const;
  /// True when a wheel entry (live or stale) lies at or before `t`; a debug
  /// check of first_at_now()'s premise.
  bool wheel_holds(SimTime t) const;
  /// Fires the already-popped queue entry's callback in place (stale entries
  /// are dropped); returns true iff a live event executed.
  bool fire(const Event& ev);
  /// Fires events in (time, seq) order while their time is <= limit.
  void drain(SimTime limit);
  /// Sorts the arrival heap and merges it into the sorted run.
  void flush_arrivals();
  /// Merges the sorted `batch` into the run's pending remainder through
  /// scratch_, or copies it in when the run is fully consumed. The batch
  /// keeps its storage, so the heap/run/scratch trio only swaps among itself.
  void merge_into_run(const std::vector<Event>& batch);

  // 8-ary heap primitives over heap_. Push (the scheduling hot path) is
  // inline; the sift-down loops for pop/rebuild live in the .cpp.
  void heap_push(const Event& ev) {
    heap_.push_back(ev);
    std::size_t i = heap_.size() - 1;
    Event* h = heap_.data();
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 3;
      if (!earlier(ev, h[parent])) break;
      h[i] = h[parent];
      i = parent;
    }
    h[i] = ev;
  }
  void heap_pop();
  void heap_rebuild();
  static std::size_t min_child(const Event* h, std::size_t first, std::size_t end);

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_pending_ = 0;
  std::size_t pending_high_water_ = 0;
  std::size_t cancelled_pending_ = 0;
  /// Arrival stage: 8-ary heap of events not yet merged into sorted_.
  std::vector<Event> heap_;
  /// Drain stage: globally ordered run; sorted_[cursor_..] is still pending.
  std::vector<Event> sorted_;
  std::size_t cursor_ = 0;
  std::vector<Event> scratch_;  // merge target, recycled across flushes
  /// Slot arena: fixed raw-byte chunks, so growth never relocates a live
  /// closure and fresh chunks are not pre-touched — slots [0, num_slots_)
  /// are placement-constructed one at a time as the pool first grows.
  std::vector<std::unique_ptr<unsigned char[]>> chunks_;
  std::uint32_t num_slots_ = 0;
  /// LIFO recycling stack of released slot indices.
  std::vector<std::uint32_t> free_slots_;

  static constexpr std::uint32_t kChunkShift = 9;  // 512 slots/chunk, 32 KB
  static constexpr std::uint32_t kChunkMask = (1u << kChunkShift) - 1;
  /// Below this queue size compaction is not worth the rebuild.
  static constexpr std::size_t kCompactionMinimum = 64;
  /// Arrival heaps at or below this size are never flushed: the sort+merge
  /// bookkeeping only pays off once sifts get deep.
  static constexpr std::size_t kFlushMinimum = 64;

  // --- Timing wheel (coarse timers: RTOs, think-time wakeups) ---
  static constexpr int kWheelLevels = 3;
  static constexpr int kWheelLevelBits = 6;  // 64 buckets per level
  static constexpr std::uint32_t kWheelBuckets = 1u << kWheelLevelBits;
  /// Level-0 tick: 2^16 us = 65.536 ms. Level ticks are 65.5 ms / 4.19 s /
  /// 268 s, so the wheel spans ~4.77 simulated hours before falling back to
  /// the heap.
  static constexpr int kWheelShift0 = 16;
  /// Timers shorter than two level-0 ticks stay in the heap: they fire too
  /// soon for bucketing to pay, and the two-tick margin guarantees an insert
  /// always lands strictly ahead of the wheel frontier.
  static constexpr SimTime kWheelMinDelay = SimTime{2} << kWheelShift0;

  /// Bucket storage, level-major: bucket b of level k lives at index
  /// (k << kWheelLevelBits) + b. Vectors keep their capacity across reuse,
  /// so a warmed-up wheel inserts without allocating.
  std::array<std::vector<Event>, std::size_t{kWheelLevels} << kWheelLevelBits>
      wheel_buckets_;
  /// Per-level occupancy bitmap (bit b = bucket b non-empty): advancing the
  /// frontier skips empty buckets with a rotate + count-trailing-zeros
  /// instead of scanning.
  std::array<std::uint64_t, kWheelLevels> wheel_occupied_{};
  /// Flush frontier, always a multiple of the level-0 tick: every wheel event
  /// with time < wheel_time_ has been flushed to the heap, and every bucket
  /// containing wheel_time_ (at any level) is empty.
  SimTime wheel_time_ = 0;
  /// Start time of the earliest occupied bucket (max() when the wheel is
  /// empty). Lets the drain loop skip the per-event level scan: the wheel
  /// cannot owe the heap anything before this instant. Maintained as a lower
  /// bound on insert, recomputed whenever advance/compaction changes
  /// occupancy.
  SimTime wheel_next_ = std::numeric_limits<SimTime>::max();
  /// Entries currently parked in wheel buckets (live + stale).
  std::size_t wheel_entries_ = 0;
  std::vector<Event> wheel_scratch_;  // cascade staging, recycled

  /// Seqs reserve_seq() handed out that no event has used yet, and one past
  /// the seq of the event that fired (or the reserved work that ran inline)
  /// last: a reserved seq at now() must be at least that. Kept after the hot
  /// members so that their offsets do not move.
  std::uint64_t reserved_ = 0;
  std::uint64_t seq_floor_ = 0;

  /// Resets the closure of every still-pending event (found via the queues —
  /// only live slots hold a closure). Shared by the destructor and restore():
  /// before checkpoint bytes overwrite the arena, any closure scheduled after
  /// the capture must be destroyed through its manager.
  void reset_pending_closures();

 public:
  /// Complete engine checkpoint. The arena chunks are captured as raw byte
  /// copies — valid because capture() checks that every live closure is
  /// trivially relocatable (see InlineFunction::is_trivially_relocatable) —
  /// and restore() copies them back into the *same* chunks, so EventHandles
  /// and `this`-capturing closures held by other components stay valid
  /// across a rollback. A Snapshot may be restored into its source simulator
  /// any number of times; restoring after the first capture never allocates
  /// (all destination capacity was established at capture time or earlier).
  struct Snapshot {
    SimTime now = 0;
    std::uint64_t next_seq = 0;
    std::uint64_t reserved = 0;
    std::uint64_t seq_floor = 0;
    std::uint64_t executed = 0;
    std::size_t live_pending = 0;
    std::size_t pending_high_water = 0;
    std::size_t cancelled_pending = 0;
    std::vector<Event> heap;
    /// Pending tail of the sorted run (cursor re-based to 0).
    std::vector<Event> sorted;
    std::vector<std::uint32_t> free_slots;
    std::uint32_t num_slots = 0;
    /// Byte copies of every arena chunk that held a constructed slot.
    std::vector<std::unique_ptr<unsigned char[]>> chunks;
    std::array<std::vector<Event>, std::size_t{kWheelLevels} << kWheelLevelBits>
        wheel_buckets;
    std::array<std::uint64_t, kWheelLevels> wheel_occupied{};
    SimTime wheel_time = 0;
    SimTime wheel_next = std::numeric_limits<SimTime>::max();
    std::size_t wheel_entries = 0;
  };

  /// Copies the engine state aside. Reusing one Snapshot object across
  /// captures reuses its buffers.
  void capture(Snapshot& out) const;
  /// Restores state captured from *this* simulator (same arena chunks).
  void restore(const Snapshot& snap);
};

/// Repeats a callback at a fixed period until stopped. The first invocation
/// happens at `start + period` (or at `start` if fire_immediately).
class PeriodicTask {
 public:
  PeriodicTask(Simulator& sim, SimTime period, InlineCallback fn,
               bool fire_immediately = false);
  ~PeriodicTask() { stop(); }
  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void stop();
  bool running() const { return running_; }
  SimTime period() const { return period_; }
  /// Changes the period to `period` (must be > 0, checked). The firing that
  /// is already armed keeps its old deadline; the new period applies when
  /// that firing re-arms, i.e. from the next firing onwards.
  void set_period(SimTime period);

  /// Checkpoint support. The armed firing is an event in the simulator's
  /// arena; its handle round-trips through the Snapshot and stays valid
  /// because Simulator::restore revives the same (slot, seq) occupancy.
  /// Restore only makes sense alongside a restore of the owning simulator.
  struct Snapshot {
    SimTime period = 0;
    bool running = false;
    EventHandle next;
  };

  void capture(Snapshot& out) const {
    out.period = period_;
    out.running = running_;
    out.next = next_;
  }

  void restore(const Snapshot& snap) {
    period_ = snap.period;
    running_ = snap.running;
    next_ = snap.next;
  }

 private:
  void arm(SimTime delay);

  Simulator& sim_;
  SimTime period_;
  InlineCallback fn_;
  bool running_ = true;
  EventHandle next_;
};

}  // namespace memca
