#include "sim/simulator.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <utility>

namespace memca {

void EventHandle::cancel() {
  if (sim_ != nullptr) sim_->cancel_event(slot_, seq_);
}

bool EventHandle::pending() const {
  return sim_ != nullptr && sim_->event_pending(slot_, seq_);
}

void Simulator::run_until(SimTime end) {
  MEMCA_CHECK_MSG(end >= now_, "cannot run backwards");
  drain(end);
  now_ = end;
}

void Simulator::run_all() { drain(std::numeric_limits<SimTime>::max()); }

void Simulator::drain(SimTime limit) {
  for (;;) {
    // Bulk flush policy: once the arrival heap holds more than half of what
    // the sorted run still owes, sorting it wholesale is cheaper than paying
    // a full-depth sift per pop. A tiny heap (a periodic tick rescheduling
    // itself, a server completion in flight) stays a plain heap forever.
    if (heap_.size() > kFlushMinimum + (sorted_.size() - cursor_) / 2) {
      flush_arrivals();
    }
    const Event* next = cursor_ < sorted_.size() ? &sorted_[cursor_] : nullptr;
    bool from_heap = false;
    if (!heap_.empty() && (next == nullptr || earlier(heap_.front(), *next))) {
      next = &heap_.front();
      from_heap = true;
    }
    if (wheel_entries_ > 0) {
      // Every wheel event at or before the next firing instant must be
      // queued (sorted run or heap) before that event fires; if the wheel
      // released a bucket, re-pick — it may hold the new earliest event. The cached
      // earliest-bucket start turns the common "wheel owes nothing yet" case
      // into a single compare instead of a per-event level scan.
      const SimTime target =
          next != nullptr && next->time < limit ? next->time : limit;
      if (wheel_next_ <= target && advance_wheel(target)) continue;
    }
    if (next == nullptr || next->time > limit) return;
    const Event ev = *next;
    if (from_heap) {
      heap_pop();
    } else {
      ++cursor_;
      // Reclaim the consumed head once it dominates the run; the memmove is
      // O(remaining), amortized constant per event.
      if (cursor_ >= 4096 && cursor_ * 2 >= sorted_.size()) {
        sorted_.erase(sorted_.begin(),
                      sorted_.begin() + static_cast<std::ptrdiff_t>(cursor_));
        cursor_ = 0;
      }
    }
    fire(ev);
  }
}

void Simulator::flush_arrivals() {
  // libstdc++'s std::sort is introsort, not pdqsort: O(n log n) whatever the
  // input order. The arrivals are not near-sorted either (service
  // completions and sub-tick timers interleave), so an in-order fast path
  // would not pay.
  std::sort(heap_.begin(), heap_.end(), Earlier{});
  if (cursor_ == sorted_.size()) {
    // The old run is fully consumed: the sorted arrivals are the new run.
    sorted_.swap(heap_);
    cursor_ = 0;
  } else {
    merge_into_run(heap_);
  }
  heap_.clear();
}

void Simulator::merge_into_run(const std::vector<Event>& batch) {
  if (cursor_ == sorted_.size()) {
    sorted_.assign(batch.begin(), batch.end());
  } else {
    scratch_.clear();
    scratch_.reserve(sorted_.size() - cursor_ + batch.size());
    std::merge(sorted_.begin() + static_cast<std::ptrdiff_t>(cursor_), sorted_.end(),
               batch.begin(), batch.end(), std::back_inserter(scratch_), Earlier{});
    sorted_.swap(scratch_);
  }
  cursor_ = 0;
}

bool Simulator::fire(const Event& ev) {
  Slot& s = slot(ev.slot);
  if (s.seq_live != occupant_key(ev.seq)) {
    MEMCA_DCHECK(cancelled_pending_ > 0);
    --cancelled_pending_;
    return false;
  }
  // The closure runs in place in its slot: chunked storage guarantees the
  // slot never relocates even if the callback grows the pool. Clearing the
  // live bit first makes a self-cancel from inside the callback a no-op, and
  // the slot only joins the free stack afterwards, so events scheduled by
  // the callback cannot reuse it while its closure is still executing.
  s.seq_live &= ~std::uint64_t{1};
  --live_pending_;
  ++executed_;
  now_ = ev.time;
  seq_floor_ = ev.seq + 1;
  s.fn();
  s.fn.reset();
  free_slots_.push_back(ev.slot);
  return true;
}

// Index of the earliest event among h[first, end). Deliberately branchy:
// event queues drained in near-schedule order keep the heap close to sorted,
// so these comparisons predict well and the core speculates past the loads.
// A cmov min-scan and a branch-free comparator measured slower when the
// arrival heap still held every event; since the sorted run and the timing
// wheel took most of them, the heap is shallow (a Fig. 2 cell averages 4.45
// events at a pop), and that comparison has not been repeated.
std::size_t Simulator::min_child(const Event* h, std::size_t first, std::size_t end) {
  std::size_t best = first;
  for (std::size_t c = first + 1; c < end; ++c) {
    if (earlier(h[c], h[best])) best = c;
  }
  return best;
}

// 8-ary sift-down. A third of the depth of a binary heap, with each child
// group a three-cache-line sequential scan of 24 B events that the hardware
// prefetchers handle well — measurably cheaper than std::push_heap/pop_heap
// on the large queues the testbed builds (and than 4-ary or 16-ary layouts;
// the dependent load chain across levels is what dominates).
void Simulator::heap_pop() {
  const std::size_t n = heap_.size() - 1;
  Event* h = heap_.data();
  const Event last = h[n];
  heap_.pop_back();
  if (n == 0) return;
  std::size_t i = 0;
  for (;;) {
    const std::size_t first_child = (i << 3) + 1;
    if (first_child >= n) break;
    const std::size_t best = min_child(h, first_child, std::min(first_child + 8, n));
    if (!earlier(h[best], last)) break;
    h[i] = h[best];
    i = best;
  }
  h[i] = last;
}

void Simulator::heap_rebuild() {
  const std::size_t n = heap_.size();
  if (n < 2) return;
  Event* h = heap_.data();
  for (std::size_t start = (n - 2) >> 3; start + 1 > 0; --start) {
    const Event item = h[start];
    std::size_t i = start;
    for (;;) {
      const std::size_t first_child = (i << 3) + 1;
      if (first_child >= n) break;
      const std::size_t best = min_child(h, first_child, std::min(first_child + 8, n));
      if (!earlier(h[best], item)) break;
      h[i] = h[best];
      i = best;
    }
    h[i] = item;
    if (start == 0) break;
  }
}

void Simulator::add_chunk() {
  chunks_.push_back(std::make_unique_for_overwrite<unsigned char[]>(
      sizeof(Slot) << kChunkShift));
}

void Simulator::release_slot(std::uint32_t index) {
  Slot& s = slot(index);
  s.fn.reset();  // destroy the capture eagerly
  s.seq_live &= ~std::uint64_t{1};
  free_slots_.push_back(index);
}

void Simulator::reset_pending_closures() {
  // Only live slots hold a closure (firing, cancelling, and releasing all
  // reset the slot's callback), and every live slot has exactly one matching
  // queue entry — so walking the queues touches the pending events instead
  // of sweeping the whole arena. Empty InlineCallback destructors are
  // no-ops, so the remaining Slot objects need no teardown.
  for (const Event& ev : heap_) {
    Slot& s = slot(ev.slot);
    if (s.seq_live == occupant_key(ev.seq)) s.fn.reset();
  }
  for (std::size_t i = cursor_; i < sorted_.size(); ++i) {
    Slot& s = slot(sorted_[i].slot);
    if (s.seq_live == occupant_key(sorted_[i].seq)) s.fn.reset();
  }
  if (wheel_entries_ > 0) {
    for (const std::vector<Event>& bucket : wheel_buckets_) {
      for (const Event& ev : bucket) {
        Slot& s = slot(ev.slot);
        if (s.seq_live == occupant_key(ev.seq)) s.fn.reset();
      }
    }
  }
}

Simulator::~Simulator() { reset_pending_closures(); }

void Simulator::capture(Snapshot& out) const {
  out.now = now_;
  out.next_seq = next_seq_;
  out.reserved = reserved_;
  out.seq_floor = seq_floor_;
  out.executed = executed_;
  out.live_pending = live_pending_;
  out.pending_high_water = pending_high_water_;
  out.cancelled_pending = cancelled_pending_;
  out.heap.assign(heap_.begin(), heap_.end());
  out.sorted.assign(sorted_.begin() + static_cast<std::ptrdiff_t>(cursor_),
                    sorted_.end());
  out.free_slots.assign(free_slots_.begin(), free_slots_.end());
  out.num_slots = num_slots_;
  // Every live closure must survive a byte copy: the restore path memcpys
  // chunk bytes back without running constructors, so a heap-owning or
  // non-trivially-destructible capture would be duplicated or leaked.
  for (std::uint32_t i = 0; i < num_slots_; ++i) {
    const Slot& s = slot(i);
    if ((s.seq_live & 1u) != 0) {
      MEMCA_CHECK_MSG(s.fn.is_trivially_relocatable(),
                      "cannot checkpoint a live closure that is not trivially "
                      "relocatable (heap-allocated or non-trivial capture)");
    }
  }
  constexpr std::size_t kChunkBytes = sizeof(Slot) << kChunkShift;
  const std::size_t used_chunks =
      (static_cast<std::size_t>(num_slots_) + kChunkMask) >> kChunkShift;
  while (out.chunks.size() < used_chunks) {
    out.chunks.push_back(std::make_unique_for_overwrite<unsigned char[]>(kChunkBytes));
  }
  out.chunks.resize(used_chunks);
  for (std::size_t i = 0; i < used_chunks; ++i) {
    std::memcpy(out.chunks[i].get(), chunks_[i].get(), kChunkBytes);
  }
  for (std::size_t b = 0; b < wheel_buckets_.size(); ++b) {
    out.wheel_buckets[b].assign(wheel_buckets_[b].begin(), wheel_buckets_[b].end());
  }
  out.wheel_occupied = wheel_occupied_;
  out.wheel_time = wheel_time_;
  out.wheel_next = wheel_next_;
  out.wheel_entries = wheel_entries_;
}

void Simulator::restore(const Snapshot& snap) {
  MEMCA_CHECK_MSG(snap.num_slots <= num_slots_ &&
                      snap.chunks.size() <= chunks_.size(),
                  "a Snapshot only restores into the simulator it captured");
  // Closures scheduled after the capture may be non-trivial; destroy them
  // through their managers before checkpoint bytes overwrite the arena.
  reset_pending_closures();
  constexpr std::size_t kChunkBytes = sizeof(Slot) << kChunkShift;
  for (std::size_t i = 0; i < snap.chunks.size(); ++i) {
    std::memcpy(chunks_[i].get(), snap.chunks[i].get(), kChunkBytes);
  }
  num_slots_ = snap.num_slots;
  free_slots_.assign(snap.free_slots.begin(), snap.free_slots.end());
  now_ = snap.now;
  next_seq_ = snap.next_seq;
  reserved_ = snap.reserved;
  seq_floor_ = snap.seq_floor;
  executed_ = snap.executed;
  live_pending_ = snap.live_pending;
  pending_high_water_ = snap.pending_high_water;
  cancelled_pending_ = snap.cancelled_pending;
  // The two pending stages swap buffers with each other and with scratch_
  // during flushes, so no single member's capacity is monotonic — but the
  // capacity *multiset* of the trio is. Assign each stage into a buffer big
  // enough for it (largest snapshot list into the largest buffer), then swap
  // the buffers into their members: restore stays allocation-free.
  std::vector<Event>* by_cap[3] = {&heap_, &sorted_, &scratch_};
  std::sort(by_cap, by_cap + 3, [](const std::vector<Event>* a,
                                   const std::vector<Event>* b) {
    return a->capacity() > b->capacity();
  });
  std::vector<Event>* heap_dst = by_cap[0];
  std::vector<Event>* sorted_dst = by_cap[1];
  if (snap.heap.size() < snap.sorted.size()) std::swap(heap_dst, sorted_dst);
  heap_dst->assign(snap.heap.begin(), snap.heap.end());
  sorted_dst->assign(snap.sorted.begin(), snap.sorted.end());
  if (heap_dst != &heap_) {
    heap_.swap(*heap_dst);
    if (sorted_dst == &heap_) sorted_dst = heap_dst;
  }
  if (sorted_dst != &sorted_) sorted_.swap(*sorted_dst);
  scratch_.clear();
  cursor_ = 0;
  for (std::size_t b = 0; b < wheel_buckets_.size(); ++b) {
    wheel_buckets_[b].assign(snap.wheel_buckets[b].begin(),
                             snap.wheel_buckets[b].end());
  }
  wheel_occupied_ = snap.wheel_occupied;
  wheel_time_ = snap.wheel_time;
  wheel_next_ = snap.wheel_next;
  wheel_entries_ = snap.wheel_entries;
}

void Simulator::wheel_insert(const Event& ev) {
  if (wheel_entries_ == 0) {
    // The frontier can be arbitrarily stale after the wheel sat empty; snap
    // it to the current tick so the delta-based level choice below sees a
    // fresh window. All buckets are empty, so no cascade state is skipped.
    wheel_time_ = (now_ >> kWheelShift0) << kWheelShift0;
  }
  MEMCA_DCHECK(ev.time >= wheel_time_);
  // Level selection must use bucket-tick distance, not the raw time delta:
  // the frontier is only level-0 aligned, so a delta just under a level's
  // window can still span kWheelBuckets ticks at that level, wrapping the
  // absolute-time index onto the frontier's own bucket — a bucket the
  // advance loop would then (wrongly) treat as already due. Distance in
  // tick space keeps the level and the index consistent for any alignment.
  for (int level = 0; level < kWheelLevels; ++level) {
    const int shift = kWheelShift0 + level * kWheelLevelBits;
    if ((ev.time >> shift) - (wheel_time_ >> shift) < SimTime{kWheelBuckets}) {
      const std::uint32_t idx =
          static_cast<std::uint32_t>(ev.time >> shift) & (kWheelBuckets - 1);
      wheel_buckets_[(static_cast<std::uint32_t>(level) << kWheelLevelBits) + idx]
          .push_back(ev);
      wheel_occupied_[static_cast<std::size_t>(level)] |= std::uint64_t{1} << idx;
      ++wheel_entries_;
      const SimTime start = (ev.time >> shift) << shift;
      if (start < wheel_next_) wheel_next_ = start;
      return;
    }
  }
  heap_push(ev);  // beyond the wheel horizon (~4.77 simulated hours)
}

// Earliest occupied bucket across levels, by absolute start time. The
// occupancy window of each level starts at the frontier's bucket, so rotating
// the bitmap there turns "next occupied bucket" into a count-trailing-zeros.
Simulator::WheelBucket Simulator::wheel_earliest() const {
  WheelBucket best{std::numeric_limits<SimTime>::max(), -1};
  for (int level = 0; level < kWheelLevels; ++level) {
    const std::uint64_t occ = wheel_occupied_[static_cast<std::size_t>(level)];
    if (occ == 0) continue;
    const int shift = kWheelShift0 + level * kWheelLevelBits;
    const std::uint64_t cur_tick = static_cast<std::uint64_t>(wheel_time_) >> shift;
    const std::uint64_t rot =
        std::rotr(occ, static_cast<int>(cur_tick & (kWheelBuckets - 1)));
    const int steps = std::countr_zero(rot);
    const SimTime start = static_cast<SimTime>(
        (cur_tick + static_cast<std::uint64_t>(steps)) << shift);
    if (start < best.start) best = {start, level};
  }
  return best;
}

bool Simulator::wheel_holds(SimTime t) const {
  // wheel_next_ lower-bounds every occupied bucket's start, and so every
  // entry's time.
  if (wheel_next_ > t) return false;
  for (const std::vector<Event>& bucket : wheel_buckets_) {
    for (const Event& ev : bucket) {
      if (ev.time <= t) return true;
    }
  }
  return false;
}

bool Simulator::advance_wheel(SimTime limit) {
  while (wheel_entries_ > 0) {
    const WheelBucket best = wheel_earliest();
    MEMCA_DCHECK(best.level >= 0);
    if (best.start > limit) {
      wheel_next_ = best.start;
      break;
    }

    const int shift = kWheelShift0 + best.level * kWheelLevelBits;
    const std::uint32_t idx =
        static_cast<std::uint32_t>(best.start >> shift) & (kWheelBuckets - 1);
    std::vector<Event>& bucket =
        wheel_buckets_[(static_cast<std::uint32_t>(best.level) << kWheelLevelBits) + idx];
    wheel_occupied_[static_cast<std::size_t>(best.level)] &= ~(std::uint64_t{1} << idx);
    wheel_entries_ -= bucket.size();

    if (best.level == 0) {
      // Frontier reached a level-0 bucket: drop the entries cancelled while
      // parked, sort the rest once and merge them into the sorted run (a
      // plain copy when the run is consumed, as it nearly always is). Via
      // the run each entry fires with a cursor increment instead of a sift
      // up and down the arrival heap, which keeps only short-delay events.
      // The run uses the heap's (time, seq) order, so the firing order is
      // unchanged. Entries are copied out, never swapped in: each bucket
      // keeps its own storage, which restore() relies on.
      const std::size_t dropped = std::erase_if(bucket, [this](const Event& ev) {
        return slot(ev.slot).seq_live != occupant_key(ev.seq);
      });
      MEMCA_DCHECK(cancelled_pending_ >= dropped);
      cancelled_pending_ -= dropped;
      std::sort(bucket.begin(), bucket.end(), Earlier{});
      merge_into_run(bucket);
      bucket.clear();
      wheel_time_ = best.start + (SimTime{1} << kWheelShift0);
      wheel_next_ = wheel_earliest().start;
      return true;
    }

    // Higher-level bucket: advance the frontier to its start and cascade its
    // entries one step down (their delta now fits the lower level's window).
    // Staged through a scratch vector because reinsertion targets other
    // buckets of this same wheel. The storage is swapped back below so each
    // bucket's capacity stays monotone — restore() relies on that to refill
    // buckets from a Snapshot without allocating.
    wheel_time_ = best.start;
    wheel_scratch_.clear();
    std::swap(wheel_scratch_, bucket);
    bool fed_heap = false;
    for (const Event& ev : wheel_scratch_) {
      if (slot(ev.slot).seq_live != occupant_key(ev.seq)) {
        MEMCA_DCHECK(cancelled_pending_ > 0);
        --cancelled_pending_;
        continue;
      }
      // Same tick-distance level choice as wheel_insert (the frontier now
      // sits on a level-best.level boundary, so a lower level always fits a
      // bucket's worth of cascade range).
      bool refiled = false;
      for (int level = 0; level < best.level; ++level) {
        const int lshift = kWheelShift0 + level * kWheelLevelBits;
        if ((ev.time >> lshift) - (wheel_time_ >> lshift) < SimTime{kWheelBuckets}) {
          const std::uint32_t lidx =
              static_cast<std::uint32_t>(ev.time >> lshift) & (kWheelBuckets - 1);
          wheel_buckets_[(static_cast<std::uint32_t>(level) << kWheelLevelBits) + lidx]
              .push_back(ev);
          wheel_occupied_[static_cast<std::size_t>(level)] |= std::uint64_t{1} << lidx;
          ++wheel_entries_;
          refiled = true;
          break;
        }
      }
      // A mis-filed entry must never vanish: if no lower level accepts it
      // (impossible under the invariant above, but cheap to guard), fire it
      // through the heap at its correct time instead of dropping it.
      if (!refiled) {
        MEMCA_DCHECK(false);
        heap_push(ev);
        fed_heap = true;
      }
    }
    // The cascade only refiles into *lower* levels, so the drained bucket is
    // still empty: hand its storage back and keep the capacities home.
    std::swap(wheel_scratch_, bucket);
    bucket.clear();
    if (fed_heap) {
      // The caller's candidate pointer into the heap is stale; recompute the
      // earliest bucket and report so it re-picks.
      wheel_next_ = wheel_earliest().start;
      return true;
    }
  }
  // Nothing at or before `limit` remains parked; pull the frontier up to the
  // limit's tick (every bucket in between is empty) so the next insert and
  // advance start from a fresh window.
  if (wheel_entries_ == 0) wheel_next_ = std::numeric_limits<SimTime>::max();
  const SimTime snapped = (limit >> kWheelShift0) << kWheelShift0;
  if (snapped > wheel_time_) wheel_time_ = snapped;
  return false;
}

void Simulator::cancel_event(std::uint32_t index, std::uint64_t seq) {
  if (!event_pending(index, seq)) return;
  release_slot(index);
  --live_pending_;
  ++cancelled_pending_;  // its queue entry is now stale
  maybe_compact();
}

void Simulator::cancel_bulk(const EventHandle* handles, std::size_t n) {
  std::size_t cancelled = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const EventHandle& h = handles[i];
    if (h.sim_ == nullptr || !event_pending(h.slot_, h.seq_)) continue;
    MEMCA_DCHECK(h.sim_ == this);
    release_slot(h.slot_);
    ++cancelled;
  }
  if (cancelled == 0) return;
  live_pending_ -= cancelled;
  cancelled_pending_ += cancelled;
  maybe_compact();
}

void Simulator::maybe_compact() {
  const std::size_t entries =
      heap_.size() + (sorted_.size() - cursor_) + wheel_entries_;
  if (entries < kCompactionMinimum || cancelled_pending_ * 2 <= entries) {
    return;
  }
  const auto stale = [this](const Event& ev) {
    return slot(ev.slot).seq_live != occupant_key(ev.seq);
  };
  std::erase_if(heap_, stale);
  heap_rebuild();
  // Drop the consumed head along with the stale entries; erase_if keeps the
  // relative order, so the run stays sorted without another sort.
  sorted_.erase(sorted_.begin(), sorted_.begin() + static_cast<std::ptrdiff_t>(cursor_));
  cursor_ = 0;
  std::erase_if(sorted_, stale);
  // Wheel buckets hold the bulk of the stale population in an RTO-heavy
  // workload (most retransmission timers are cancelled by the reply); sweep
  // them too so the zeroed counter below stays truthful.
  if (wheel_entries_ > 0) {
    for (int level = 0; level < kWheelLevels; ++level) {
      std::uint64_t occ = wheel_occupied_[static_cast<std::size_t>(level)];
      while (occ != 0) {
        const int idx = std::countr_zero(occ);
        occ &= occ - 1;
        std::vector<Event>& bucket =
            wheel_buckets_[(static_cast<std::uint32_t>(level) << kWheelLevelBits) +
                           static_cast<std::uint32_t>(idx)];
        const std::size_t before = bucket.size();
        std::erase_if(bucket, stale);
        wheel_entries_ -= before - bucket.size();
        if (bucket.empty()) {
          wheel_occupied_[static_cast<std::size_t>(level)] &=
              ~(std::uint64_t{1} << idx);
        }
      }
    }
    wheel_next_ = wheel_earliest().start;
  }
  cancelled_pending_ = 0;
}

PeriodicTask::PeriodicTask(Simulator& sim, SimTime period, InlineCallback fn,
                           bool fire_immediately)
    : sim_(sim), period_(period), fn_(std::move(fn)) {
  MEMCA_CHECK_MSG(period_ > 0, "period must be positive");
  MEMCA_CHECK_MSG(static_cast<bool>(fn_), "PeriodicTask needs a callback");
  arm(fire_immediately ? 0 : period_);
}

void PeriodicTask::stop() {
  running_ = false;
  next_.cancel();
}

void PeriodicTask::set_period(SimTime period) {
  MEMCA_CHECK_MSG(period > 0, "period must be positive");
  period_ = period;
}

void PeriodicTask::arm(SimTime delay) {
  next_ = sim_.schedule_in(delay, [this] {
    if (!running_) return;
    fn_();
    if (running_) arm(period_);
  });
}

}  // namespace memca
