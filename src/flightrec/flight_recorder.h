// Always-on black-box flight recorder + millibottleneck incident detector.
//
// The paper's production problem in one sentence: coarse monitors average
// millibottlenecks away (Fig. 10), and full tracing is too expensive to
// leave on. The FlightRecorder is the middle path a real operator deploys —
// bounded state, always on, and when something goes wrong it already holds
// the evidence:
//
//   * a native-resolution (50 ms) rolling Timeline of queue depths, the
//     capacity multiplier D(t), per-tier drops and the RTO backlog, built
//     from the telemetry clock's frames (monitor::TelemetryFrame) the owner
//     pushes through tick(),
//   * the bounded span ring (a trace::TraceRecorder with a capacity) the owner
//     wires through the usual trace hooks.
//
// It records no latency of its own: client latency and per-tier residence
// times are read from the log-bucketed histograms the clients and tiers
// already keep (LatencyHistogram — bounded, exact merge), which the owner
// wires in.
//
// The embedded IncidentDetector watches three signals: a completion
// crossing the VLRT threshold, a tick window with queue-overflow drops, and
// a capacity dip below the dip threshold. Any of them opens an incident
// window (or extends the open one); a VLRT completion additionally *pins*
// the request's span events by copying them out of the ring before wrap
// can evict them — the tail-biased retention that makes a fixed-budget ring
// forensically useful. When the window has been quiet for quiet_close, the
// detector freezes the overlapping timeline frames, replays the pinned
// spans through trace::TailAttributor for the per-phase decomposition, and
// emits a structured Incident (see incident.h).
//
// Everything runs inside the owning cell's deterministic event order (the
// owner's clock tick and completion hook are simulator events), so
// incidents — like every other sweep output — are bit-identical across
// MEMCA_SWEEP_THREADS, and the whole recorder checkpoints/rolls back with
// the world (mid-incident included).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/histogram.h"
#include "common/time.h"
#include "flightrec/incident.h"
#include "flightrec/timeline.h"
#include "monitor/telemetry.h"
#include "trace/attributor.h"
#include "trace/recorder.h"

namespace memca::flightrec {

struct FlightRecorderConfig {
  /// Rolling timeline depth in frames (256 × 50 ms ≈ 12.8 s of history).
  std::size_t timeline_frames = 256;
  /// Completions at or above this RT are very-long-response-time requests.
  SimTime vlrt_threshold = sec(std::int64_t{1});
  /// A capacity multiplier below this counts as a dip episode.
  double dip_threshold = 0.9;
  /// Close the open incident after this much time without any trigger.
  /// Must exceed the attack interval for a burst train to fold into one
  /// incident; 2 s covers the calibrated scenario and one RTO floor.
  SimTime quiet_close = sec(std::int64_t{2});
  /// Tier/station count of the observed system (attribution depth).
  std::size_t depth = 3;
  /// Pending VLRT pins are flushed into the ring scan every this many
  /// ticks (close always flushes first regardless). Each flush re-reads a
  /// ~1 s ring suffix, so per-tick flushing mostly re-scans cold events;
  /// a few ticks of batching divides that cost without changing the pinned
  /// set — the ring holds tens of seconds of traffic, so nothing is
  /// evicted while a batch waits.
  std::uint32_t pin_flush_period = 8;
  /// Emitted incidents beyond this are counted but not stored.
  std::size_t max_incidents = 64;
  /// Pinned span budget per incident (newest-first; excess is dropped).
  std::size_t max_pinned_events = 65536;
};

class FlightRecorder {
 public:
  FlightRecorder(trace::TraceRecorder* ring, FlightRecorderConfig config);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // -- wiring (construction time, not checkpointed) -------------------------
  /// Client response-time histogram that client_latency() views (not
  /// owned; its owner records and checkpoints it).
  void set_client_latency_source(const LatencyHistogram* histogram) {
    client_latency_ = histogram;
  }
  /// Residence-time histogram of tier `tier` that tier_residence() views.
  void set_tier_residence_source(std::size_t tier, const LatencyHistogram* histogram);

  // -- hooks ----------------------------------------------------------------
  /// One telemetry clock tick: closes the timeline frame for the window
  /// `frame` describes, feeds the capacity-dip and queue-overflow triggers,
  /// and runs the pin-flush and quiet-close cadence.
  void tick(const monitor::TelemetryFrame& frame);

  /// Client completion hook (the testbed adapts the workload observer to
  /// this). A post-warmup VLRT completion opens/extends the incident window
  /// and pins the request's ring spans.
  void on_completion(SimTime now, SimTime first_sent, std::int32_t user, SimTime rt,
                     bool post_warmup);

  /// Closes any open incident at end of run. Call once before reading
  /// incidents(); safe before any tick.
  void finalize();

  // -- telemetry ------------------------------------------------------------
  /// Views of the wired source histograms (checked to be wired). Kept for
  /// callers that reach latency through the recorder; the owners'
  /// accessors return the same objects.
  const LatencyHistogram& client_latency() const;
  const LatencyHistogram& tier_residence(std::size_t tier) const;
  const Timeline& timeline() const { return timeline_; }

  const std::vector<Incident>& incidents() const { return incidents_; }
  /// Incidents observed beyond max_incidents (counted, not stored).
  std::int64_t incidents_dropped() const { return incidents_dropped_; }
  /// Total incidents observed, stored or not.
  std::int64_t incidents_total() const {
    return static_cast<std::int64_t>(incidents_.size()) + incidents_dropped_;
  }
  /// Span events pinned out of the ring over the whole run (post-dedupe).
  std::int64_t pinned_events_total() const { return pinned_events_total_; }
  /// VLRT completions folded into incidents over the whole run.
  std::int64_t affected_requests_total() const { return affected_requests_total_; }

  const FlightRecorderConfig& config() const { return config_; }

  /// One span event pinned out of the ring, keyed by its absolute stream
  /// index (for deterministic re-ordering and dedupe at close).
  struct PinnedEvent {
    std::uint64_t seq = 0;
    trace::TraceEvent event{};
  };

  /// A VLRT completion whose ring spans are still to be pinned. Pins are
  /// batched and flushed once per tick: VLRT completions cluster at RTO
  /// release, so one backward ring scan per tick with a user-indexed
  /// cutoff table replaces one scan per completion at identical pin
  /// semantics (each user keeps its own first_sent cutoff). A tick's
  /// worth of new events (~a hundred) can never wrap a forensically
  /// sized ring, so nothing is evicted before the flush.
  struct PendingPin {
    SimTime first_sent = 0;
    std::int32_t user = -1;
  };

  // -- checkpoint -----------------------------------------------------------
  /// Mid-incident state checkpoints with the world: the timeline copies
  /// aside, closed incidents restore by truncation (append-only), and
  /// the open window — pins included — copy-assigns back into capacity
  /// reserved at construction, so rollback allocates nothing and a replay
  /// re-closes byte-identical incidents.
  struct OpenIncident {
    bool active = false;
    std::int64_t id = 0;
    IncidentTrigger trigger = IncidentTrigger::kVlrtCompletion;
    SimTime window_start = 0;
    SimTime last_activity = 0;
    double dip_depth = 1.0;
    std::int64_t dip_episodes = 0;
    SimTime first_dip_start = 0;
    SimTime last_dip_start = 0;
    std::array<std::int64_t, kTimelineMaxTiers> tier_drops{};
    std::int64_t affected_requests = 0;
    SimTime worst_rt = 0;
    std::vector<PinnedEvent> pinned;
  };

  struct Snapshot {
    std::vector<PendingPin> pending_pins;
    Timeline::Snapshot timeline;
    std::size_t incident_count = 0;
    std::int64_t incidents_dropped = 0;
    std::int64_t next_id = 0;
    double last_capacity = 1.0;
    bool in_dip = false;
    std::array<std::int64_t, kTimelineMaxTiers> last_rejected{};
    std::uint32_t vlrt_in_window = 0;
    std::uint32_t tick_seq = 0;
    std::int64_t pinned_events_total = 0;
    std::int64_t affected_requests_total = 0;
    SimTime window = 0;
    OpenIncident open;
  };

  void capture(Snapshot& out) const;
  void restore(const Snapshot& snap);

 private:
  /// Opens the incident window (or extends the open one) at `now`; the
  /// window is stretched back to cover `span_begin`.
  void note_activity(IncidentTrigger trigger, SimTime span_begin, SimTime now);
  /// Drains pending_pins_ with one backward ring scan: copies each batched
  /// user's span events (from its own first_sent on, resolved through a
  /// user-indexed cutoff table) plus the capacity/burst context marks into
  /// the open incident.
  void flush_pins();
  void close_incident();

  /// Pending-pin batch bound; a full batch flushes inline, so the hot
  /// completion path stays allocation-free.
  static constexpr std::size_t kMaxPendingPins = 1024;

  trace::TraceRecorder* ring_;
  FlightRecorderConfig config_;

  const LatencyHistogram* client_latency_ = nullptr;
  std::array<const LatencyHistogram*, kTimelineMaxTiers> tier_residence_{};
  Timeline timeline_;

  // Tick-to-tick cursors.
  double last_capacity_ = 1.0;
  bool in_dip_ = false;
  std::array<std::int64_t, kTimelineMaxTiers> last_rejected_{};
  std::uint32_t vlrt_in_window_ = 0;
  /// Ticks so far; drives the pin-flush cadence (checkpointed, so a
  /// replay flushes on the same ticks).
  std::uint32_t tick_seq_ = 0;
  /// The last tick's window, for freezing the timeline at close.
  SimTime window_ = 0;

  OpenIncident open_;
  /// VLRT completions awaiting their per-tick pin flush (reserved at
  /// construction; see PendingPin).
  std::vector<PendingPin> pending_pins_;
  /// flush_pins() scratch: per-user first_sent cutoffs, grown to the
  /// largest user id seen and re-armed to sentinels after every flush
  /// (all-sentinel between flushes, so it needs no snapshot).
  std::vector<SimTime> user_cutoff_;
  std::vector<Incident> incidents_;
  std::int64_t incidents_dropped_ = 0;
  std::int64_t next_id_ = 0;
  std::int64_t pinned_events_total_ = 0;
  std::int64_t affected_requests_total_ = 0;

  /// Scratch arena the pinned spans are replayed into for attribution;
  /// reused across incidents.
  trace::TraceRecorder scratch_;
};

}  // namespace memca::flightrec
