// A client request travelling through the n-tier system.
//
// Service demands are pre-sampled by the workload generator (one work amount
// per tier, in microseconds of work at nominal speed 1.0). Pre-sampling keeps
// all randomness in the workload layer, so the same request stream can be
// replayed through different system models (n-tier vs tandem) for an
// apples-to-apples comparison.
//
// The request is split hot/cold. Fields the tiers touch on every simulated
// event — per-tier timestamps, lifecycle state, current tier, retransmission
// bookkeeping — live in RequestHotArena, a slot-indexed SoA arena owned by
// RequestPool: packed parallel lanes, so an enqueue/dequeue/complete touches
// a handful of dense cache lines instead of chasing a Request* into a 100+
// byte body. The pooled body keeps the cold per-attempt fields (identity,
// demand vector) and exposes accessors that read through to the arena, so
// completion callbacks and tests keep a single-object view of the request.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/time.h"

namespace memca::queueing {

struct TierTrace {
  SimTime enter = -1;
  /// First moment a local worker picked the request up; the gap from enter
  /// is pure queue wait (distinct from downstream residence).
  SimTime service_start = -1;
  SimTime leave = -1;
  /// Service demand staged at submit time (microseconds of work at speed
  /// 1.0). A copy of Request::demand_us[tier], placed next to the stamps so
  /// starting a service reads its work amount from the lane line the admit
  /// path just wrote — no chase through the Request body per tier hop.
  double demand = 0.0;
};
static_assert(sizeof(TierTrace) == 32, "stamp record should stay packed");

/// Where in the tier chain a request currently is. Written by the tiers on
/// every transition; introspection for tests, DCHECKs and (future) cohort
/// scheduling — the hot path only writes it.
enum class RequestState : std::uint8_t {
  kIdle = 0,            ///< in the pool free list / not yet submitted
  kWaiting,             ///< in a tier's wait queue
  kInService,           ///< on a worker
  kBlockedDownstream,   ///< local service done, downstream thread pool full
  kLockWait,            ///< OLTP tier: parked in a record-lock waiter queue
                        ///  (or backing off before a NO_WAIT retry)
};

/// Slot-indexed SoA arena for the per-event hot request fields. One lane per
/// field (parallel arrays indexed by pool slot); the per-tier timestamp lane
/// is slot-major (`slot * depth + tier`) so one request's three stamps for a
/// tier share a line. Owned by RequestPool, which grows it in lockstep with
/// the slot high-water mark; lanes never shrink, so a checkpoint rollback
/// restores by copy without allocating.
class RequestHotArena {
 public:
  /// Fixes the per-request tier depth (stamp lane stride). Set once by the
  /// owning system before the first request is acquired.
  void set_depth(std::size_t depth) {
    MEMCA_CHECK_MSG(depth_ == 0 || depth_ == depth,
                    "hot arena depth is fixed for the pool's lifetime");
    MEMCA_CHECK_MSG(depth >= 1, "a system needs at least one tier");
    depth_ = depth;
  }
  std::size_t depth() const { return depth_; }

  /// Fixes the service-demand quantum (µs of speed-1 work; 0 = exact, the
  /// default). When set, stage_demands rounds every staged demand onto the
  /// quantum grid — see quantize(). A deliberate event-stream change: set it
  /// once at system construction, before the first request is staged.
  void set_quantum(double quantum_us) {
    MEMCA_CHECK_MSG(quantum_us >= 0.0, "service quantum must be non-negative");
    quantum_us_ = quantum_us;
  }
  double quantum() const { return quantum_us_; }

  /// Rounds `demand_us` onto the quantum grid: nearest multiple, with a floor
  /// of one quantum so non-zero work never rounds to nothing. Nearest (rather
  /// than up) keeps the mean demand of an exponential sample essentially
  /// unbiased, which is what lets quantized runs stay inside the Fig. 2
  /// throughput-equivalence gate. Identity when the quantum is 0.
  double quantize(double demand_us) const {
    if (quantum_us_ <= 0.0) return demand_us;
    return std::max(1.0, std::round(demand_us / quantum_us_)) * quantum_us_;
  }

  /// Grows every lane to cover slots [0, slots). Lanes only ever grow.
  void ensure(std::uint32_t slots) {
    if (slots <= sent_.size()) return;
    sent_.resize(slots, 0);
    first_sent_.resize(slots, 0);
    attempt_.resize(slots, 0);
    tier_.resize(slots, -1);
    state_.resize(slots, RequestState::kIdle);
    MEMCA_CHECK_MSG(depth_ != 0, "set_depth must run before the first acquire");
    stamps_.resize(static_cast<std::size_t>(slots) * depth_);
  }

  // -- per-slot scalar lanes ------------------------------------------------
  SimTime& sent(std::uint32_t slot) { return sent_[slot]; }
  SimTime sent(std::uint32_t slot) const { return sent_[slot]; }
  SimTime& first_sent(std::uint32_t slot) { return first_sent_[slot]; }
  SimTime first_sent(std::uint32_t slot) const { return first_sent_[slot]; }
  std::int32_t& attempt(std::uint32_t slot) { return attempt_[slot]; }
  std::int32_t attempt(std::uint32_t slot) const { return attempt_[slot]; }
  std::int16_t& tier(std::uint32_t slot) { return tier_[slot]; }
  std::int16_t tier(std::uint32_t slot) const { return tier_[slot]; }
  RequestState& state(std::uint32_t slot) { return state_[slot]; }
  RequestState state(std::uint32_t slot) const { return state_[slot]; }

  // -- per-slot x per-tier timestamp lane -----------------------------------
  TierTrace& stamp(std::uint32_t slot, std::size_t tier) {
    MEMCA_DCHECK(tier < depth_);
    return stamps_[static_cast<std::size_t>(slot) * depth_ + tier];
  }
  const TierTrace& stamp(std::uint32_t slot, std::size_t tier) const {
    MEMCA_DCHECK(tier < depth_);
    return stamps_[static_cast<std::size_t>(slot) * depth_ + tier];
  }

  /// Acquire-time reset of the scalar lanes (mirrors the body-field reset).
  void reset_hot(std::uint32_t slot) {
    sent_[slot] = 0;
    first_sent_[slot] = 0;
    attempt_[slot] = 0;
    tier_[slot] = -1;
    state_[slot] = RequestState::kIdle;
  }

  /// Submit-time reset of the stamp lane (what trace.assign(depth, {}) was).
  void reset_stamps(std::uint32_t slot) {
    TierTrace* s = &stamps_[static_cast<std::size_t>(slot) * depth_];
    for (std::size_t t = 0; t < depth_; ++t) s[t] = TierTrace{};
  }

  /// Submit-time staging: resets the slot's stamps and copies the per-tier
  /// service demands into them in one pass over the lane, rounding each onto
  /// the quantum grid when a quantum is set (identity by default).
  void stage_demands(std::uint32_t slot, const std::vector<double>& demand_us) {
    MEMCA_DCHECK(demand_us.size() == depth_);
    TierTrace* s = &stamps_[static_cast<std::size_t>(slot) * depth_];
    for (std::size_t t = 0; t < depth_; ++t) {
      s[t] = TierTrace{-1, -1, -1, quantize(demand_us[t])};
    }
  }

  /// Checkpoint of the lanes: whole-prefix copies up to the slot high-water
  /// mark. Free slots are captured too (their lane values are never observed
  /// — acquire resets them — but a flat copy beats per-slot branching).
  struct Snapshot {
    std::vector<SimTime> sent;
    std::vector<SimTime> first_sent;
    std::vector<std::int32_t> attempt;
    std::vector<std::int16_t> tier;
    std::vector<RequestState> state;
    std::vector<TierTrace> stamps;
  };

  void capture(std::uint32_t slots, Snapshot& out) const {
    out.sent.assign(sent_.begin(), sent_.begin() + slots);
    out.first_sent.assign(first_sent_.begin(), first_sent_.begin() + slots);
    out.attempt.assign(attempt_.begin(), attempt_.begin() + slots);
    out.tier.assign(tier_.begin(), tier_.begin() + slots);
    out.state.assign(state_.begin(), state_.begin() + slots);
    const std::size_t n = static_cast<std::size_t>(slots) * depth_;
    out.stamps.assign(stamps_.begin(), stamps_.begin() + static_cast<std::ptrdiff_t>(n));
  }

  /// Copies lane prefixes back in place. Never allocates: lanes never
  /// shrink, so every destination already has the capacity.
  void restore(const Snapshot& snap) {
    std::copy(snap.sent.begin(), snap.sent.end(), sent_.begin());
    std::copy(snap.first_sent.begin(), snap.first_sent.end(), first_sent_.begin());
    std::copy(snap.attempt.begin(), snap.attempt.end(), attempt_.begin());
    std::copy(snap.tier.begin(), snap.tier.end(), tier_.begin());
    std::copy(snap.state.begin(), snap.state.end(), state_.begin());
    std::copy(snap.stamps.begin(), snap.stamps.end(), stamps_.begin());
  }

 private:
  std::size_t depth_ = 0;
  /// Service-demand grid step in µs; 0 disables quantization (see quantize).
  double quantum_us_ = 0.0;
  std::vector<SimTime> sent_;
  std::vector<SimTime> first_sent_;
  std::vector<std::int32_t> attempt_;
  std::vector<std::int16_t> tier_;
  std::vector<RequestState> state_;
  /// Slot-major: stamps_[slot * depth_ + tier].
  std::vector<TierTrace> stamps_;
};

struct Request {
  using Id = std::int64_t;

  Id id = 0;
  /// Workload page class (index into the page profile table), -1 if n/a.
  int page_class = -1;
  /// Client/user index that issued the request, -1 if n/a.
  int user = -1;

  /// Per-tier service demand: microseconds of work at speed 1.0.
  std::vector<double> demand_us;

  /// Arena bookkeeping, owned by RequestPool: the request's slot index, its
  /// generation word (LSB set while the request is live), and the hot-field
  /// arena this slot's lanes live in. A released request keeps its slot and
  /// bumps the generation, so a stale pointer or handle from a previous
  /// occupancy can be detected.
  std::uint32_t pool_slot = 0;
  std::uint32_t pool_gen = 0;
  RequestHotArena* hot = nullptr;

  // -- hot-field accessors (read through to the arena lanes) ----------------
  /// TCP retransmission attempt (0 = first transmission).
  std::int32_t attempt() const { return hot->attempt(pool_slot); }
  void set_attempt(std::int32_t a) { hot->attempt(pool_slot) = a; }
  /// Time the *first* transmission of this logical request left the client.
  SimTime first_sent() const { return hot->first_sent(pool_slot); }
  void set_first_sent(SimTime t) { hot->first_sent(pool_slot) = t; }
  /// Time this attempt left the client.
  SimTime sent() const { return hot->sent(pool_slot); }
  void set_sent(SimTime t) { hot->sent(pool_slot) = t; }

  /// This attempt's enter/service/leave stamps at `tier`.
  const TierTrace& trace_at(std::size_t tier) const {
    return hot->stamp(pool_slot, tier);
  }

  /// Tier residence time (leave - enter), -1 if the request never left.
  SimTime tier_time(std::size_t tier) const {
    if (tier >= hot->depth()) return -1;
    const TierTrace& t = hot->stamp(pool_slot, tier);
    if (t.enter < 0 || t.leave < 0) return -1;
    return t.leave - t.enter;
  }
};

}  // namespace memca::queueing
