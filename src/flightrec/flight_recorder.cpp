#include "flightrec/flight_recorder.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace memca::flightrec {

static_assert(kTimelineMaxTiers <= monitor::kFrameMaxTiers,
              "every timeline tier slot must have a frame reading");

FlightRecorder::FlightRecorder(trace::TraceRecorder* ring, FlightRecorderConfig config)
    : ring_(ring), config_(config), timeline_(config.timeline_frames) {
  MEMCA_CHECK_MSG(config_.depth >= 1 && config_.depth <= kTimelineMaxTiers,
                  "attribution depth must fit the timeline tier slots");
  // Reserve the pin budget up front: pinning on the hot completion path and
  // restoring a checkpoint must both be allocation-free.
  open_.pinned.reserve(config_.max_pinned_events);
  pending_pins_.reserve(kMaxPendingPins);
  incidents_.reserve(config_.max_incidents);
}

void FlightRecorder::set_tier_residence_source(std::size_t tier,
                                               const LatencyHistogram* histogram) {
  MEMCA_CHECK(tier < kTimelineMaxTiers);
  tier_residence_[tier] = histogram;
}

const LatencyHistogram& FlightRecorder::client_latency() const {
  MEMCA_CHECK_MSG(client_latency_ != nullptr, "no client latency source wired");
  return *client_latency_;
}

const LatencyHistogram& FlightRecorder::tier_residence(std::size_t tier) const {
  MEMCA_CHECK(tier < kTimelineMaxTiers);
  MEMCA_CHECK_MSG(tier_residence_[tier] != nullptr, "no tier residence source wired");
  return *tier_residence_[tier];
}

void FlightRecorder::on_completion(SimTime now, SimTime first_sent, std::int32_t user,
                                   SimTime rt, bool post_warmup) {
  if (!post_warmup || rt < config_.vlrt_threshold) return;
  ++vlrt_in_window_;
  note_activity(IncidentTrigger::kVlrtCompletion, first_sent, now);
  ++open_.affected_requests;
  open_.worst_rt = std::max(open_.worst_rt, rt);
  if (ring_ != nullptr) {
    if (pending_pins_.size() == kMaxPendingPins) flush_pins();
    pending_pins_.push_back(PendingPin{first_sent, user});
  }
}

void FlightRecorder::tick(const monitor::TelemetryFrame& in) {
  const SimTime now = in.now;
  window_ = in.window;
  TimelineFrame frame;
  frame.start = now - in.window;

  const double capacity = in.capacity_multiplier;
  frame.capacity_last = capacity;
  frame.capacity_min = std::min(capacity, last_capacity_);
  last_capacity_ = capacity;

  for (std::size_t t = 0; t < config_.depth; ++t) {
    frame.queue_depth[t] = static_cast<std::uint32_t>(std::max(0, in.resident[t]));
    frame.tier_drops[t] = static_cast<std::uint32_t>(in.rejected[t] - last_rejected_[t]);
    last_rejected_[t] = in.rejected[t];
  }
  frame.rto_backlog = static_cast<std::uint32_t>(std::max(0, in.rto_backlog));
  frame.vlrt_completions = vlrt_in_window_;
  vlrt_in_window_ = 0;
  timeline_.push(frame);

  // Capacity-dip episodes: one per downward crossing of the threshold.
  if (frame.capacity_min < config_.dip_threshold) {
    note_activity(IncidentTrigger::kCapacityDip, frame.start, now);
    if (!in_dip_) {
      in_dip_ = true;
      ++open_.dip_episodes;
      if (open_.dip_episodes == 1) open_.first_dip_start = frame.start;
      open_.last_dip_start = frame.start;
    }
  } else {
    in_dip_ = false;
  }
  if (open_.active) open_.dip_depth = std::min(open_.dip_depth, frame.capacity_min);

  // Queue-overflow drops in this window extend (or open) the incident.
  if (frame.drops_total() > 0) {
    note_activity(IncidentTrigger::kQueueOverflow, frame.start, now);
    for (std::size_t t = 0; t < config_.depth; ++t) {
      open_.tier_drops[t] += frame.tier_drops[t];
    }
  }

  // Pin flushes scan a ~1 s ring suffix (back to the batch's oldest
  // first_sent), so running one every tick re-reads mostly the same cold
  // events. Every few ticks is just as safe — the ring holds tens of
  // seconds of traffic, a few ticks' worth of new events can't wrap it —
  // and divides the scan cost by the period. close_incident() flushes
  // unconditionally, so a quiet-close never misses pending pins.
  if (++tick_seq_ % config_.pin_flush_period == 0) flush_pins();
  if (open_.active && now - open_.last_activity >= config_.quiet_close) close_incident();
}

void FlightRecorder::note_activity(IncidentTrigger trigger, SimTime span_begin, SimTime now) {
  if (!open_.active) {
    open_.active = true;
    open_.id = next_id_++;
    open_.trigger = trigger;
    open_.window_start = span_begin;
    open_.dip_depth = 1.0;
  } else {
    open_.window_start = std::min(open_.window_start, span_begin);
  }
  open_.last_activity = now;
}

void FlightRecorder::flush_pins() {
  if (pending_pins_.empty()) return;
  // Spread the batch into a user-indexed cutoff table (sentinel = not in
  // batch), so the scan below resolves membership plus the per-user time
  // cutoff with one load per event instead of a binary search. The table
  // grows to the largest user id once and is re-armed to sentinels after
  // every flush, so steady state allocates nothing. The pinned set is the
  // exact union of what per-completion scans would have pinned; the close
  // dedupes by absolute index either way.
  constexpr SimTime kNotInBatch = std::numeric_limits<SimTime>::max();
  SimTime cutoff = kNotInBatch;
  for (const PendingPin& p : pending_pins_) {
    const auto u = static_cast<std::size_t>(p.user);
    if (u >= user_cutoff_.size()) user_cutoff_.resize(u + 1, kNotInBatch);
    user_cutoff_[u] = std::min(user_cutoff_[u], p.first_sent);
    cutoff = std::min(cutoff, p.first_sent);
  }

  const trace::TraceRecorder& rec = *ring_;
  const std::size_t n = rec.size();
  const std::uint64_t first_abs = rec.total_recorded() - n;
  // Events are time-nondecreasing, so everything belonging to the batched
  // requests (and the capacity/burst context around them) sits in the
  // suffix with time >= cutoff; scan newest-to-oldest and stop there.
  for (std::size_t i = n; i-- > 0;) {
    const trace::TraceEvent& ev = rec[i];
    if (ev.time < cutoff) break;
    const bool context = ev.kind == trace::EventKind::kCapacity ||
                         ev.kind == trace::EventKind::kBurstOn ||
                         ev.kind == trace::EventKind::kBurstOff;
    if (!context) {
      const auto u = static_cast<std::size_t>(ev.user);
      if (u >= user_cutoff_.size() || ev.time < user_cutoff_[u]) continue;
    }
    if (open_.pinned.size() >= config_.max_pinned_events) break;
    open_.pinned.push_back(PinnedEvent{first_abs + i, ev});
  }
  for (const PendingPin& p : pending_pins_) {
    user_cutoff_[static_cast<std::size_t>(p.user)] = kNotInBatch;
  }
  pending_pins_.clear();
}

void FlightRecorder::close_incident() {
  flush_pins();
  // Pins arrive newest-first per request and interleave across requests;
  // absolute stream indices restore causal order and collapse the context
  // marks multiple pins share.
  std::sort(open_.pinned.begin(), open_.pinned.end(),
            [](const PinnedEvent& a, const PinnedEvent& b) { return a.seq < b.seq; });
  const auto last = std::unique(
      open_.pinned.begin(), open_.pinned.end(),
      [](const PinnedEvent& a, const PinnedEvent& b) { return a.seq == b.seq; });
  open_.pinned.erase(last, open_.pinned.end());

  Incident inc;
  inc.id = open_.id;
  inc.trigger = open_.trigger;
  inc.window_start = open_.window_start;
  inc.window_end = open_.last_activity;
  inc.dip_depth = open_.dip_depth;
  inc.dip_episodes = open_.dip_episodes;
  if (open_.dip_episodes >= 2) {
    inc.burst_interval_estimate =
        (open_.last_dip_start - open_.first_dip_start) / (open_.dip_episodes - 1);
  }
  inc.tier_drops = open_.tier_drops;
  for (std::size_t t = 0; t < config_.depth; ++t) {
    inc.drop_count += open_.tier_drops[t];
    if (open_.tier_drops[t] > 0 &&
        (inc.overflowed_tier < 0 ||
         open_.tier_drops[t] > open_.tier_drops[static_cast<std::size_t>(inc.overflowed_tier)])) {
      inc.overflowed_tier = static_cast<int>(t);
    }
  }
  inc.affected_requests = open_.affected_requests;
  inc.worst_rt = open_.worst_rt;
  inc.pinned_events = static_cast<std::int64_t>(open_.pinned.size());
  pinned_events_total_ += inc.pinned_events;
  affected_requests_total_ += inc.affected_requests;
  for (const PinnedEvent& p : open_.pinned) {
    if (p.event.kind == trace::EventKind::kRetransmit) ++inc.retransmissions;
  }

  if (!open_.pinned.empty()) {
    // Replay the pinned mini-stream through the attributor for the
    // per-phase decomposition of the VLRT requests. The window may open
    // mid-dip or truncate a request's earliest attempts (ring eviction);
    // the decomposition is over what was retained — exactly what a
    // production black box can promise.
    scratch_.clear();
    for (const PinnedEvent& p : open_.pinned) scratch_.record(p.event);
    trace::TailAttributor attributor(scratch_, config_.depth, {config_.vlrt_threshold});
    inc.decomposition = attributor.summary();
  }

  timeline_.extract(inc.window_start, inc.window_end, window_, inc.frames);

  if (incidents_.size() < config_.max_incidents) {
    incidents_.push_back(std::move(inc));
  } else {
    ++incidents_dropped_;
  }

  open_.active = false;
  open_.id = 0;
  open_.trigger = IncidentTrigger::kVlrtCompletion;
  open_.window_start = 0;
  open_.last_activity = 0;
  open_.dip_depth = 1.0;
  open_.dip_episodes = 0;
  open_.first_dip_start = 0;
  open_.last_dip_start = 0;
  open_.tier_drops = {};
  open_.affected_requests = 0;
  open_.worst_rt = 0;
  open_.pinned.clear();
}

void FlightRecorder::finalize() {
  if (open_.active) close_incident();
}

void FlightRecorder::capture(Snapshot& out) const {
  out.pending_pins = pending_pins_;
  timeline_.capture(out.timeline);
  out.incident_count = incidents_.size();
  out.incidents_dropped = incidents_dropped_;
  out.next_id = next_id_;
  out.last_capacity = last_capacity_;
  out.in_dip = in_dip_;
  out.last_rejected = last_rejected_;
  out.vlrt_in_window = vlrt_in_window_;
  out.tick_seq = tick_seq_;
  out.pinned_events_total = pinned_events_total_;
  out.affected_requests_total = affected_requests_total_;
  out.window = window_;
  out.open = open_;
}

void FlightRecorder::restore(const Snapshot& snap) {
  timeline_.restore(snap.timeline);
  // Closed incidents are append-only; rollback truncates the ones emitted
  // after the checkpoint. The open window copy-assigns into the capacity
  // reserved at construction (max_pinned_events), so nothing allocates.
  MEMCA_CHECK(snap.incident_count <= incidents_.size());
  incidents_.resize(snap.incident_count);
  incidents_dropped_ = snap.incidents_dropped;
  next_id_ = snap.next_id;
  last_capacity_ = snap.last_capacity;
  in_dip_ = snap.in_dip;
  last_rejected_ = snap.last_rejected;
  vlrt_in_window_ = snap.vlrt_in_window;
  tick_seq_ = snap.tick_seq;
  pinned_events_total_ = snap.pinned_events_total;
  affected_requests_total_ = snap.affected_requests_total;
  window_ = snap.window;
  open_.active = snap.open.active;
  open_.id = snap.open.id;
  open_.trigger = snap.open.trigger;
  open_.window_start = snap.open.window_start;
  open_.last_activity = snap.open.last_activity;
  open_.dip_depth = snap.open.dip_depth;
  open_.dip_episodes = snap.open.dip_episodes;
  open_.first_dip_start = snap.open.first_dip_start;
  open_.last_dip_start = snap.open.last_dip_start;
  open_.tier_drops = snap.open.tier_drops;
  open_.affected_requests = snap.open.affected_requests;
  open_.worst_rt = snap.open.worst_rt;
  open_.pinned.assign(snap.open.pinned.begin(), snap.open.pinned.end());
  pending_pins_.assign(snap.pending_pins.begin(), snap.pending_pins.end());
}

}  // namespace memca::flightrec
