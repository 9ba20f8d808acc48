// Closed-loop client population with TCP retransmission semantics.
//
// Reproduces the paper's RUBBoS workload generator: N concurrent users, each
// navigating page classes through a Markov chain with exponentially
// distributed think time (mean 7 s) between consecutive requests.
//
// TCP behaviour on a front-tier drop follows RFC 6298's floor: the client
// retransmits after max(1 s, backoff), doubling per retry. The *client-
// observed* response time spans the first transmission to the final
// completion — this is the 1 s+ tail the paper's Fig. 2/9d measures, and
// the reason finite front-tier queues amplify the tail so dramatically.
//
// Two scheduling models share this implementation (ClientConfig::mode):
//
//  * kExact — the original per-user model: every user owns a think-time
//    timer and a (page, busy) record. Event streams are byte-identical to
//    the historical implementation; this is the reference the cohort model
//    is validated against and the default everywhere.
//  * kCohort — the population is one cohort of statistically identical
//    users. Idle users exist only as a per-page-class count; a periodic
//    think tick draws Binomial(idle[p], 1 - exp(-tick/Z)) wake-ups per page
//    for the upcoming window and advances them through the Markov chain
//    with multinomial count draws — so the draw cost per tick is O(pages)
//    regardless of population size. The wakers are then scattered uniformly
//    over millisecond sub-slots inside the window (for tick << Z the
//    truncated-exponential wake instant is uniform to first order), and each
//    occupied sub-slot sends its wakers page by page — so arrival *instants*
//    match the exact model's spread. Individual identity (a compact slot id)
//    exists only while a request or RTO is in flight; RFC 6298 timers
//    aggregate per (deadline, attempt) group in an RtoLedger, whose groups
//    of one attempt fall due in the order they were parked.
//    The population holds one simulator event. Its agenda lists the pending
//    work: the next think tick, the current tick's next occupied sub-slot
//    and each attempt level's earliest-due RTO group, each under the engine
//    seq its own event would have had (Simulator::reserve_seq). The event
//    waits for the earliest item. When it fires, the agenda runs that item,
//    then inline every further item due at the same instant that still
//    comes before everything queued in the engine, then re-arms: every item
//    runs at its own (time, seq) position, so only the engine's event count
//    differs from one event per item. Only an item can add an item earlier
//    than the next tick (a drop the system reports on its own parks at
//    least min_rto >= cohort_tick ahead), so the armed event stays valid.
//    Door rejections, nearly all of the work in an overload storm, never
//    get a Request: admission cannot free a thread, so within one event the
//    front tier admits a prefix of each burst or RTO group. Only that
//    prefix is submitted; the rest is counted at the door and parked or
//    abandoned one 64 KB ledger block span at a time, with the counters,
//    request ids, RNG draws and trace events that per-attempt submits
//    would have produced. An RTO
//    group that bounces again is relabelled to its next attempt in place,
//    so the re-park copies no entry.
//    Statistically the cohort model quantizes the *start* of each think
//    period to the tick grid (adding ~tick/2 to the effective think time,
//    0.4% at the defaults); arrival instants themselves are not bunched —
//    without the sub-slot scatter, a 50 ms tick at the paper's 3.5k-user
//    calibration lands ~25 arrivals on one instant and the transient queue
//    spike quadruples baseline p50. tests/workload/
//    cohort_equivalence_test.cpp pins the resulting tail-quantile and
//    retransmission-count agreement with the exact model on the calibrated
//    Fig. 2 configuration.
#pragma once

#include <algorithm>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/timeseries.h"
#include "sim/simulator.h"
#include "trace/recorder.h"
#include "workload/cohort.h"
#include "workload/markov.h"
#include "workload/profile.h"
#include "workload/router.h"

namespace memca::workload {

/// How the population schedules itself; see the file comment.
enum class ClientMode {
  kExact,
  kCohort,
};

const char* to_string(ClientMode mode);

struct ClientConfig {
  int num_users = 3500;
  /// RFC 6298 minimum retransmission timeout.
  SimTime min_rto = sec(std::int64_t{1});
  /// Give up after this many retransmissions (the request counts as failed).
  int max_retries = 6;
  /// Response times before this instant are not recorded (warm-up).
  SimTime stats_warmup = 0;
  /// Per-user timers (kExact, byte-stable reference) or aggregate cohort
  /// draws (kCohort, O(pages) per tick — the only mode that scales to
  /// millions of users).
  ClientMode mode = ClientMode::kExact;
  /// Think-tick granularity of the cohort scheduler. Think-period *starts*
  /// quantize to this grid (50 ms against a 7 s think time biases
  /// throughput by ~0.4%, inside the documented equivalence tolerance);
  /// arrival instants are scattered over millisecond sub-slots within each
  /// tick, so the tick length does not bunch arrivals.
  SimTime cohort_tick = msec(50);
  /// Keep the raw post-warmup (time, rt) sample series (Fig. 9d and the
  /// defense ablation read it). Off by default: the series grows with every
  /// completion — unbounded at population scale — and every reported
  /// quantile reads the response-time *histogram* instead, which stays
  /// always-on: its log-bucketed store is a few KB regardless of
  /// population size.
  bool record_response_series = false;
};

/// What a completion observer (see set_completion_observer) learns about
/// each finished logical request — enough for an online tail watcher to
/// detect VLRT completions and pin their spans without reaching into the
/// request pool.
struct CompletionEvent {
  SimTime now = 0;
  std::int64_t request = 0;
  SimTime first_sent = 0;
  std::int32_t user = -1;
  int attempt = 0;
  /// End-to-end client-observed response time (now - first_sent).
  SimTime rt = 0;
  /// False during the statistics warm-up.
  bool post_warmup = false;
};

class ClosedLoopClients {
 public:
  ClosedLoopClients(Simulator& sim, RequestRouter& router, WorkloadProfile profile,
                    ClientConfig config, Rng rng);
  ClosedLoopClients(const ClosedLoopClients&) = delete;
  ClosedLoopClients& operator=(const ClosedLoopClients&) = delete;

  /// Launches all users; each issues its first request after a uniformly
  /// random initial think (desynchronises the population). The cohort model
  /// realises the same ramp by thinning the not-yet-started count per tick.
  void start();

  // -- statistics ----------------------------------------------------------
  /// End-to-end (first send -> completion) response times, post-warmup.
  const LatencyHistogram& response_times() const { return response_times_; }
  /// (completion time, response time µs) samples, post-warmup (Fig. 9d).
  /// Empty unless ClientConfig::record_response_series.
  const TimeSeries& response_series() const { return response_series_; }
  /// Attempts sent, retransmissions included (an attempt rejected at the
  /// door counts too).
  std::int64_t submitted() const { return submitted_; }
  std::int64_t completed() const { return completed_; }
  /// Front-tier drops observed (each triggers a retransmission).
  std::int64_t dropped_attempts() const { return dropped_attempts_; }
  /// Requests abandoned after max_retries.
  std::int64_t failed() const { return failed_; }
  /// Completed requests that needed at least one retransmission.
  std::int64_t retransmitted_completions() const { return retransmitted_completions_; }
  /// Retransmissions scheduled (RFC 6298 timer armed) but not yet fired —
  /// the in-flight RTO backlog a flight recorder samples per tick.
  int rto_backlog() const {
    return config_.mode == ClientMode::kCohort ? rto_.backlog() : rto_backlog_;
  }
  /// Observed throughput since start, requests/second.
  double throughput() const;

  const ClientConfig& config() const { return config_; }
  ClientMode mode() const { return config_.mode; }

  /// Cohort-mode introspection: users currently idle (counted per page) plus
  /// users still in the start-up ramp. With the in-flight slot count this
  /// conserves the population: idle_users() + user_slots().live() ==
  /// num_users. Zero in exact mode.
  std::int64_t idle_users() const;
  /// Cohort-mode slot allocator (ids for users with a request or RTO in
  /// flight); high_water() bounds every user-indexed side table.
  const UserSlotAllocator& user_slots() const { return slots_; }
  /// Cohort-mode RTO ledger: the parked retransmissions and, per attempt,
  /// the due FIFO of their groups.
  const RtoLedger& rto_ledger() const { return rto_; }
  /// Cohort mode: the current tick's wakers not sent yet, per (sub-slot,
  /// page), slot-major; each sub-slot's item zeroes its row as it sends.
  std::span<const std::int64_t> sub_slot_counts() const { return spread_scratch_; }

  /// Bytes of population-proportional storage currently held (user lanes,
  /// cohort counters, slot/RTO lanes, the optional response series) — the
  /// benchmark's `workload.bytes_per_user` figure. Excludes the fixed-size
  /// latency histogram.
  std::size_t memory_bytes() const;

  /// Attaches a span-event recorder for the client lifecycle events
  /// (send / complete / retransmit / abandon). Not owned.
  void set_trace(trace::TraceRecorder* recorder) { trace_ = recorder; }

  /// Observer invoked once per completed request, after the completion has
  /// been traced and recorded (so an observer that walks the trace stream
  /// already sees the kComplete event). Construction-time wiring, not
  /// checkpointed; null disables.
  void set_completion_observer(std::function<void(const CompletionEvent&)> observer) {
    completion_observer_ = std::move(observer);
  }

 private:
  void schedule_think(int user);
  void send_request(int user, int page, SimTime first_sent, int attempt);
  void on_complete(const queueing::Request& req);
  /// Quantized mode: one completion group of this population's requests.
  /// Statistics per member, then the scheduling tail (cohort slot release +
  /// idle re-count, or exact think scheduling) folded into one pass.
  void on_complete_batch(queueing::Request* const* reqs, std::size_t n);
  /// The statistics half of a completion (counters, trace mark, histograms,
  /// observer) — everything except the mode-specific scheduling tail.
  /// Returns the client-observed response time.
  SimTime record_completion(const queueing::Request& req);
  void on_drop(const queueing::Request& req);
  /// The agenda's event: runs the earliest item, then every item due now
  /// that comes before the engine's queue, then re-arms.
  void run_agenda();
  /// Index of the agenda's earliest item by (time, seq).
  std::size_t earliest_item() const;
  /// Arms the agenda's event at `item`, under its reserved seq.
  void arm_agenda(std::size_t item);
  /// One cohort think tick: binomial wake-ups per page, multinomial page
  /// transitions, the scatter over sub-slots, one reserved seq per occupied
  /// sub-slot, then the next tick's.
  void on_cohort_tick();
  /// The sub-slot item: sends the sub-slot's wakers page by page, then
  /// moves the item to the tick's next occupied sub-slot.
  void run_sub_slot();
  /// The first sub-slot from `s` on with wakers to send; num_sub_slots_
  /// when none is left.
  int next_sub_slot(int s) const;
  /// Sends `count` fresh requests on `page`, one slot id each.
  void send_cohort_burst(int page, std::int32_t count);
  /// Points the agenda item of `attempt` at its due FIFO's head group: its
  /// deadline and the engine seq it reserved when parked or relabelled.
  void refresh_level(int attempt);
  /// Re-sends the retransmissions parked in RTO ledger group `group`, in
  /// its drain order, while the front tier accepts; the rest bounce at the
  /// door and the group moves on to its next attempt (or is abandoned).
  void fire_rto_group(std::uint32_t group);
  /// What settle_drops settles, in drain order: the rest of the fired RTO
  /// group `fired`, read through `rest`; or, when `fired` is kNone, fresh
  /// first attempts sent at `first_sent` on `page`, which take their slot
  /// ids there.
  struct Drops {
    std::uint32_t fired = RtoLedger::kNone;
    RtoLedger::Cursor* rest = nullptr;
    SimTime first_sent = 0;
    std::int32_t page = 0;
  };
  /// Cohort door settlement: the entry tier rejects all `k` remaining
  /// attempts at `attempt` (it is full, and admission cannot free a thread),
  /// so they skip the Request, router dispatch and submit round trip. One
  /// router call counts them at the door and reserves their request ids;
  /// then settle_drops handles them as on_drop would.
  void reject_at_door(int attempt, std::int64_t k, const Drops& drops);
  /// The client half of `k` cohort drops at `attempt`, whose request ids
  /// start at `first_id` (router id stride apart). Counters are bumped once
  /// by k, and the bookkeeping runs once per 64 KB ledger block span. At
  /// max_retries the drops are abandoned: ids back to the allocator, users
  /// idle again, in drain order. Otherwise a fired group is relabelled to
  /// `attempt` in place with no entry copied, and fresh drops take their
  /// ids in one allocator pass and append to the attempt's tail group or a
  /// new one. A relabelled or new group reserves its engine seq and, when
  /// it heads its level, becomes the level's agenda item. `at_door` marks
  /// attempts no system has seen: those also draw their demands in
  /// exact-demand mode (keeping the RNG stream) and trace the kDrop that
  /// submit() would have. That and the client's trace marks are the
  /// per-entry work, done in one observation pass over each span; a
  /// relabelled group's entries are read only when it exists.
  void settle_drops(int attempt, std::int64_t k, queueing::Request::Id first_id, bool at_door,
                    const Drops& drops);

  /// Whether a drop leaves trace events (a client or system recorder is
  /// attached).
  bool traces_drops() const {
#ifndef MEMCA_TRACE_DISABLED
    return trace_ != nullptr || router_.system().tracing();
#else
    return false;
#endif
  }

  /// Appends a client lifecycle event iff a recorder is attached.
  /// aux = first_sent for send/complete/abandon, the scheduled RTO for
  /// retransmit.
  void mark(trace::EventKind kind, const queueing::Request& req, SimTime aux) {
    mark(kind, req.id, req.user, req.attempt(), aux);
  }
  void mark(trace::EventKind kind, queueing::Request::Id id, std::int32_t user, int attempt,
            SimTime aux) {
#ifndef MEMCA_TRACE_DISABLED
    if (trace_ == nullptr) return;
    trace_->record(trace::TraceEvent{sim_.now(), id, aux, 0.0, user, -1, kind,
                                     static_cast<std::uint8_t>(attempt)});
#else
    (void)kind;
    (void)id;
    (void)user;
    (void)attempt;
    (void)aux;
#endif
  }

  Simulator& sim_;
  RequestRouter& router_;
  WorkloadProfile profile_;
  MarkovChain chain_;
  ClientConfig config_;
  Rng rng_;
  int source_ = -1;
  // Quantized mode only: skip demand sampling when the system would reject
  // the submit anyway (see send_request and settle_drops). Derived from the
  // target system's service grid at construction — wiring, not state, so
  // not checkpointed.
  bool lazy_demands_ = false;
  trace::TraceRecorder* trace_ = nullptr;
  std::function<void(const CompletionEvent&)> completion_observer_;

  // Exact-mode per-user state, SoA lanes (empty in cohort mode): the current
  // page class and the attempt-in-flight flag.
  std::vector<std::int32_t> user_page_;
  std::vector<std::uint8_t> user_busy_;

  // Cohort-mode state. idle_by_page_[p] counts idle users whose current page
  // is p; initial_pending_ counts users still in the start-up ramp (no page
  // yet — the initial distribution is drawn at first wake). send_scratch_
  // (per-page wake totals) is a per-tick transient, consumed before the
  // tick returns, and stays out of the snapshot. spread_scratch_ holds the
  // current tick's scattered wakers per (sub-slot, page), slot-major, until
  // their sub-slot item sends them, so a mid-tick snapshot carries it.
  std::vector<std::int64_t> idle_by_page_;
  std::int64_t initial_pending_ = 0;
  // Wakers whose sub-slot item has not run yet: removed from idle_by_page_
  // (so later draws cannot wake them twice) but holding no slot.
  // idle_users() counts them so the conservation invariant holds at every
  // instant.
  std::int64_t waking_ = 0;
  double wake_probability_ = 0.0;
  int num_sub_slots_ = 1;
  SimTime sub_slot_width_ = 0;
  // The agenda's one armed event (see agenda_ below).
  EventHandle agenda_event_;
  UserSlotAllocator slots_;
  RtoLedger rto_;
  std::vector<std::int64_t> send_scratch_;
  std::vector<std::int64_t> spread_scratch_;
  // Exact-demand mode: where reject_at_door draws each doomed attempt's
  // demands. Per-call transient, like send_scratch_.
  std::vector<double> demand_scratch_;

  bool started_ = false;
  SimTime start_time_ = 0;

  LatencyHistogram response_times_;
  TimeSeries response_series_;
  std::int64_t submitted_ = 0;
  std::int64_t completed_ = 0;
  std::int64_t dropped_attempts_ = 0;
  std::int64_t failed_ = 0;
  std::int64_t retransmitted_completions_ = 0;
  int rto_backlog_ = 0;

  // Cohort mode: the agenda (see the file comment). An item is the
  // (time, seq) its own event would have had; time is max() while the item
  // is absent. Slot kTickItem is the next think tick, kSubSlotItem the
  // current tick's next occupied sub-slot, and kLevelItems + a the due
  // FIFO head of attempt a (max_retries of them). Last (agenda_event_ sits
  // with the cohort scalars above), so cohort state moves no exact-mode
  // member.
  struct AgendaItem {
    SimTime time;
    std::uint64_t seq;
  };
  static constexpr AgendaItem kNoItem{std::numeric_limits<SimTime>::max(), 0};
  static constexpr std::size_t kTickItem = 0;
  static constexpr std::size_t kSubSlotItem = 1;
  static constexpr std::size_t kLevelItems = 2;
  std::vector<AgendaItem> agenda_;

 public:
  /// Checkpoint of the population: POD lanes for the per-user (exact) or
  /// per-page (cohort) state, the RNG stream position, and every statistic.
  /// The response series is append-only, so it is restored by truncation
  /// (allocation-free); in-flight think-time events and the cohort agenda's
  /// event are the simulator's to restore — the agenda's handle round-trips
  /// by value, the same idiom as OpenLoopSource, beside its items and the
  /// current tick's sub-slot counts. All lanes are captured with
  /// capacity-reusing assigns and restored with plain copies, so rollback
  /// after the first capture never allocates.
  struct Snapshot {
    Rng rng{0};
    std::vector<std::int32_t> user_page;
    std::vector<std::uint8_t> user_busy;
    std::vector<std::int64_t> idle_by_page;
    std::int64_t initial_pending = 0;
    std::int64_t waking = 0;
    std::vector<std::int64_t> sub_slot_counts;
    UserSlotAllocator::Snapshot slots;
    RtoLedger::Snapshot rto;
    std::vector<AgendaItem> agenda;
    EventHandle agenda_event;
    bool started = false;
    SimTime start_time = 0;
    LatencyHistogram response_times;
    std::size_t response_series_size = 0;
    std::int64_t submitted = 0;
    std::int64_t completed = 0;
    std::int64_t dropped_attempts = 0;
    std::int64_t failed = 0;
    std::int64_t retransmitted_completions = 0;
    int rto_backlog = 0;
  };

  void capture(Snapshot& out) const {
    out.rng = rng_;
    out.user_page.assign(user_page_.begin(), user_page_.end());
    out.user_busy.assign(user_busy_.begin(), user_busy_.end());
    out.idle_by_page.assign(idle_by_page_.begin(), idle_by_page_.end());
    out.initial_pending = initial_pending_;
    out.waking = waking_;
    out.sub_slot_counts.assign(spread_scratch_.begin(), spread_scratch_.end());
    slots_.capture(out.slots);
    rto_.capture(out.rto);
    out.agenda.assign(agenda_.begin(), agenda_.end());
    out.agenda_event = agenda_event_;
    out.started = started_;
    out.start_time = start_time_;
    out.response_times = response_times_;
    out.response_series_size = response_series_.size();
    out.submitted = submitted_;
    out.completed = completed_;
    out.dropped_attempts = dropped_attempts_;
    out.failed = failed_;
    out.retransmitted_completions = retransmitted_completions_;
    out.rto_backlog = rto_backlog_;
  }

  void restore(const Snapshot& snap) {
    rng_ = snap.rng;
    MEMCA_CHECK(snap.user_page.size() == user_page_.size());
    MEMCA_CHECK(snap.user_busy.size() == user_busy_.size());
    MEMCA_CHECK(snap.idle_by_page.size() == idle_by_page_.size());
    MEMCA_CHECK(snap.sub_slot_counts.size() == spread_scratch_.size());
    MEMCA_CHECK(snap.agenda.size() == agenda_.size());
    std::copy(snap.user_page.begin(), snap.user_page.end(), user_page_.begin());
    std::copy(snap.user_busy.begin(), snap.user_busy.end(), user_busy_.begin());
    std::copy(snap.idle_by_page.begin(), snap.idle_by_page.end(), idle_by_page_.begin());
    initial_pending_ = snap.initial_pending;
    waking_ = snap.waking;
    std::copy(snap.sub_slot_counts.begin(), snap.sub_slot_counts.end(),
              spread_scratch_.begin());
    slots_.restore(snap.slots);
    rto_.restore(snap.rto);
    std::copy(snap.agenda.begin(), snap.agenda.end(), agenda_.begin());
    agenda_event_ = snap.agenda_event;
    started_ = snap.started;
    start_time_ = snap.start_time;
    response_times_ = snap.response_times;
    response_series_.truncate(snap.response_series_size);
    submitted_ = snap.submitted;
    completed_ = snap.completed;
    dropped_attempts_ = snap.dropped_attempts;
    failed_ = snap.failed;
    retransmitted_completions_ = snap.retransmitted_completions;
    rto_backlog_ = snap.rto_backlog;
  }
};

}  // namespace memca::workload
