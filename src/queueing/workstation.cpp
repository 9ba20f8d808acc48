#include "queueing/workstation.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.h"

namespace memca::queueing {

WorkStation::WorkStation(Simulator& sim, int workers,
                         InlineFunction<void(std::uint32_t)> on_done)
    : sim_(sim),
      on_done_(std::move(on_done)),
      slots_(static_cast<std::size_t>(workers)) {
  MEMCA_CHECK_MSG(workers >= 1, "a station needs at least one worker");
  MEMCA_CHECK_MSG(static_cast<bool>(on_done_), "WorkStation needs a completion callback");
  busy_last_change_ = sim_.now();
  bind_completion_thunks(0);
  rebuild_free_mask();
}

void WorkStation::enable_batch_completions(
    SimTime quantum_us, InlineFunction<void(const std::uint32_t*, std::size_t)> on_batch) {
  MEMCA_CHECK_MSG(quantum_us > 0, "completion quantum must be positive");
  MEMCA_CHECK_MSG(static_cast<bool>(on_batch), "batch mode needs a batch callback");
  MEMCA_CHECK_MSG(quantum_ == 0 && busy_ == 0,
                  "batch completions must be enabled once, before any service starts");
  quantum_ = quantum_us;
  on_batch_done_ = std::move(on_batch);
  reserve_batch_storage();
}

void WorkStation::reserve_batch_storage() {
  if (quantum_ == 0) return;
  // Worst case every busy worker completes at a distinct instant (groups) or
  // at one instant (batch span), so worker-count capacity bounds both.
  groups_.reserve(slots_.size());
  cancel_scratch_.reserve(slots_.size());
  batch_buf_.reserve(slots_.size());
  group_next_.resize(slots_.size(), kNoSlot);
}

void WorkStation::rebuild_free_mask() {
  free_mask_.assign((slots_.size() + 63) / 64, 0);
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i].busy && !slots_[i].retired) mask_set(i);
  }
}

void WorkStation::bind_completion_thunks(std::size_t first) {
  for (std::size_t i = first; i < slots_.size(); ++i) {
    slots_[i].fire = CompletionFire{this, static_cast<std::uint32_t>(i)};
  }
}

void WorkStation::accrue_busy_time() {
  const SimTime now = sim_.now();
  // Same-instant transitions (a batch of completions, a complete-then-start
  // pair) contribute zero area; skip the load-add-store of the integral.
  if (now == busy_last_change_) return;
  busy_time_us_ += static_cast<double>(busy_) * static_cast<double>(now - busy_last_change_);
  busy_last_change_ = now;
}

double WorkStation::busy_worker_time_us() const {
  return busy_time_us_ +
         static_cast<double>(busy_) * static_cast<double>(sim_.now() - busy_last_change_);
}

void WorkStation::add_workers(int n) {
  MEMCA_CHECK_MSG(n > 0, "must add at least one worker");
  // Settle the busy-time integral first: utilization normalisation changes
  // capacity from here on and the integral must stay exact.
  accrue_busy_time();
  // Revive retired slots first, then grow.
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (n == 0) break;
    Slot& s = slots_[i];
    if (s.retired) {
      s.retired = false;
      --retired_;
      --n;
      if (!s.busy) mask_set(i);
    }
  }
  if (pending_retire_ > 0) {
    const int cancel = std::min(pending_retire_, n);
    pending_retire_ -= cancel;
    n -= cancel;
  }
  if (n > 0) {
    const std::size_t old_size = slots_.size();
    slots_.resize(old_size + static_cast<std::size_t>(n));
    bind_completion_thunks(old_size);
    free_mask_.resize((slots_.size() + 63) / 64, 0);
    for (std::size_t i = old_size; i < slots_.size(); ++i) mask_set(i);
    reserve_batch_storage();
  }
}

void WorkStation::remove_workers(int n) {
  MEMCA_CHECK_MSG(n > 0, "must remove at least one worker");
  MEMCA_CHECK_MSG(workers() - pending_retire_ - n >= 1,
                  "a station must keep at least one worker");
  accrue_busy_time();
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (n == 0) break;
    Slot& s = slots_[i];
    if (!s.busy && !s.retired) {
      s.retired = true;
      ++retired_;
      --n;
      mask_clear(i);
    }
  }
  // The remainder retires as busy workers finish their current request.
  pending_retire_ += n;
}

void WorkStation::start(std::uint32_t payload, double work_us) {
  MEMCA_CHECK_MSG(has_free_worker(), "WorkStation::start requires a free worker");
  MEMCA_CHECK_MSG(work_us >= 0.0, "work must be non-negative");
  for (std::size_t w = 0; w < free_mask_.size(); ++w) {
    if (free_mask_[w] == 0) continue;
    const std::size_t i = (w << 6) + static_cast<std::size_t>(
                                         std::countr_zero(free_mask_[w]));
    Slot& s = slots_[i];
    accrue_busy_time();
    s.busy = true;
    s.payload = payload;
    s.remaining_work = work_us;
    s.last_update = sim_.now();
    ++busy_;
    mask_clear(i);
    schedule_completion(i);
    return;
  }
}

void WorkStation::schedule_completion(std::size_t slot_index) {
  Slot& s = slots_[slot_index];
  const double duration_us = s.remaining_work / speed_;
  // Ceil so non-zero work always takes at least one tick: guarantees progress
  // and preserves event-order determinism.
  const SimTime delay = static_cast<SimTime>(std::ceil(duration_us));
  if (quantum_ == 0) {
    s.done = sim_.schedule_at(sim_.now() + delay, s.fire);
    return;
  }
  // Quantized mode: round the completion *instant* up onto the grid. Demands
  // are already grid multiples (RequestHotArena::stage_demands), so this
  // re-grids the two off-grid cases — a service started mid-grid on an idle
  // worker, and a degraded-service extension after set_speed rescaling —
  // at a cost of at most one quantum of extra residence.
  const SimTime raw = sim_.now() + delay;
  const SimTime when = ((raw + quantum_ - 1) / quantum_) * quantum_;
  join_group(static_cast<std::uint32_t>(slot_index), when);
}

void WorkStation::join_group(std::uint32_t slot_index, SimTime when) {
  group_next_[slot_index] = kNoSlot;
  for (Group& g : groups_) {
    if (g.when != when) continue;
    group_next_[g.tail] = slot_index;
    g.tail = slot_index;
    return;
  }
  Group g;
  g.when = when;
  g.head = g.tail = slot_index;
  g.ev = sim_.schedule_at(when, GroupFire{this, when});
  groups_.push_back(g);  // within reserved capacity: never allocates mid-run
}

void WorkStation::fire_group(SimTime when) {
  std::size_t gi = groups_.size();
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    if (groups_[i].when == when) {
      gi = i;
      break;
    }
  }
  MEMCA_CHECK_MSG(gi < groups_.size(), "completion fired for an unknown group");
  std::uint32_t next = groups_[gi].head;
  groups_[gi] = groups_.back();
  groups_.pop_back();
  // Free every member first — the batch callback sees all of the group's
  // workers available, the batch-wide counterpart of the per-slot "worker is
  // already free when on_done runs" contract.
  accrue_busy_time();
  batch_buf_.clear();
  while (next != kNoSlot) {
    const std::uint32_t i = next;
    next = group_next_[i];
    group_next_[i] = kNoSlot;
    Slot& s = slots_[i];
    MEMCA_CHECK(s.busy);
    batch_buf_.push_back(s.payload);
    s.busy = false;
    s.payload = 0;
    s.remaining_work = 0.0;
    --busy_;
    ++completed_;
    if (pending_retire_ > 0) {
      s.retired = true;
      ++retired_;
      --pending_retire_;
    } else {
      mask_set(i);
    }
  }
  on_batch_done_(batch_buf_.data(), batch_buf_.size());
}

void WorkStation::complete(std::size_t slot_index) {
  Slot& s = slots_[slot_index];
  MEMCA_CHECK(s.busy);
  const std::uint32_t payload = s.payload;
  accrue_busy_time();
  s.busy = false;
  s.payload = 0;
  s.remaining_work = 0.0;
  --busy_;
  ++completed_;
  if (pending_retire_ > 0) {
    s.retired = true;
    ++retired_;
    --pending_retire_;
  } else {
    mask_set(slot_index);
  }
  on_done_(payload);
}

void WorkStation::set_speed(double speed) {
  MEMCA_CHECK_MSG(speed > 0.0, "speed must be positive");
  if (speed == speed_) return;
  const SimTime now = sim_.now();
  if (quantum_ > 0 && !groups_.empty()) {
    // Every in-flight completion moves: kill all group events in one bulk
    // cancel (one sweep decision instead of one per group) and regroup below.
    cancel_scratch_.clear();
    for (const Group& g : groups_) cancel_scratch_.push_back(g.ev);
    sim_.cancel_bulk(cancel_scratch_.data(), cancel_scratch_.size());
    groups_.clear();
  }
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& s = slots_[i];
    if (!s.busy) continue;
    // Progress already made at the old speed.
    const double elapsed_us = static_cast<double>(now - s.last_update);
    s.remaining_work = std::max(0.0, s.remaining_work - elapsed_us * speed_);
    s.last_update = now;
    if (quantum_ == 0) s.done.cancel();
  }
  speed_ = speed;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].busy) schedule_completion(i);
  }
}

}  // namespace memca::queueing
