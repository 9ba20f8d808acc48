// One tier of an n-tier system with RPC thread-holding semantics.
//
// A tier has a hard thread limit Q (the paper's queue size: server threads /
// connection-pool slots) and a bank of workers (vCPUs). A request occupies
// one thread from admission until its *reply* leaves the tier — including
// the whole time it is queued or served in any downstream tier. That is the
// synchronous-RPC coupling the paper identifies as the amplification
// mechanism: queued requests in MySQL pin threads in Tomcat and Apache, so
// a millibottleneck in the back end exhausts every upstream thread pool
// (cross-tier queue overflow, Fig. 6b).
//
// Within a tier, a request's lifecycle is:
//   waiting  -> in service -> [blocked on downstream ->] awaiting reply -> departs
// The "blocked" state holds requests whose local service finished but whose
// downstream tier has no free thread; the downstream tier pulls the oldest
// blocked request the moment one of its threads frees.
//
// Hot-path layout: the tier moves requests as pool-slot indices. Queues hold
// packed u32 slots, the per-event fields (timestamps, lifecycle state, tier
// index) are written straight into the RequestPool's SoA arena lanes, and
// the Request body is only dereferenced once per local service (demand read)
// and once per reply delivery. Throughput counters update directly where
// each request is offered, admitted, rejected or completed, so a read is
// exact at any instant; they are the only count (a metrics registry copies
// the totals at end of run).
#pragma once

#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/inline_callback.h"
#include "common/ring_queue.h"
#include "queueing/request_pool.h"
#include "queueing/workstation.h"
#include "trace/recorder.h"

namespace memca::queueing {

struct TierConfig {
  std::string name;
  /// Thread limit Q_i: max requests resident in this tier at once.
  int threads = 100;
  /// Parallel service slots (vCPUs).
  int workers = 2;
  /// Service-demand quantum in µs (0 = exact, the byte-stable default).
  /// When set, staged demands round onto this grid, the station groups
  /// same-instant completions under one simulator event, and the tier drains
  /// whole completion batches end to end (batched downstream forward, one
  /// reply delivery per batch). Must be uniform across a chain — the staging
  /// arena is shared. A deliberate, documented event-stream change.
  std::uint32_t service_quantum_us = 0;

  bool operator==(const TierConfig&) const = default;
};

class TierServer {
 public:
  TierServer(Simulator& sim, RequestPool& pool, TierConfig config,
             std::size_t tier_index);
  /// Tiers are owned polymorphically by NTierSystem (see the TierFactory
  /// hook) so variants like the OLTP lock-table tier can slot into the
  /// chain.
  virtual ~TierServer() = default;
  TierServer(const TierServer&) = delete;
  TierServer& operator=(const TierServer&) = delete;

  /// Wires this tier's downstream neighbour (and its upstream back-pointer).
  void set_downstream(TierServer* downstream);
  /// Front tier only: where completed replies are delivered.
  void set_reply_sink(InlineFunction<void(Request*)> sink);
  /// Front tier, quantized mode: replies departing during one completion
  /// batch are buffered and delivered as one span through this sink (the
  /// drain empties the buffer before its event returns). Without
  /// it, quantized mode falls back to the per-request reply sink.
  void set_batch_reply_sink(InlineFunction<void(Request* const*, std::size_t)> sink);

  /// External entry (front tier): admits or rejects. A rejection is a
  /// dropped request — the client's TCP layer will retransmit.
  bool try_submit(Request* req);
  /// Counts `n` external offers rejected because the tier is full (a
  /// rejecting try_submit's bookkeeping, without the Request).
  void reject_offers(std::int64_t n);

  /// Scales this tier's service speed (the attack coupling sets this to the
  /// degradation index D during ON bursts; 1.0 when OFF).
  void set_speed_multiplier(double multiplier);
  double speed_multiplier() const { return station_.speed(); }

  /// Elastic scale-out: adds `workers` service slots (and grows the thread
  /// limit by `extra_threads`, since a scaled-out replica also brings its
  /// own connection capacity). Waiting requests start immediately.
  void add_capacity(int workers, int extra_threads = 0);

  /// Elastic scale-in: retires `workers` slots (busy ones finish first) and
  /// shrinks the thread limit by `fewer_threads` (never below the larger of
  /// one and the current worker count).
  void remove_capacity(int workers, int fewer_threads = 0);

  // -- introspection -------------------------------------------------------
  const TierConfig& config() const { return config_; }
  const std::string& name() const { return config_.name; }
  std::size_t index() const { return index_; }
  int threads() const { return config_.threads; }
  int workers() const { return station_.workers(); }
  /// Requests currently occupying a thread in this tier.
  int resident() const { return resident_; }
  /// Waiting for a local worker.
  int waiting() const { return static_cast<int>(wait_queue_.size()); }
  /// Being served locally right now.
  int in_service() const { return station_.busy(); }
  /// Local service done, waiting for a downstream thread.
  int blocked_on_downstream() const { return static_cast<int>(blocked_.size()); }
  /// Resident in some downstream tier.
  int awaiting_reply() const { return awaiting_reply_; }
  bool full() const { return resident_ >= config_.threads; }

  std::int64_t offered() const { return offered_; }
  std::int64_t admitted() const { return admitted_; }
  std::int64_t rejected() const { return rejected_; }
  std::int64_t completed() const { return completed_; }

  /// Per-tier residence-time (enter→leave) distribution.
  const LatencyHistogram& residence_time() const { return residence_time_; }

  /// Busy-worker time integral (worker-microseconds), for CPU utilization
  /// sampling. See WorkStation::busy_worker_time_us.
  double busy_worker_time_us() const { return station_.busy_worker_time_us(); }
  /// Busy-worker fraction over the window that just closed: the integral's
  /// growth since `last_integral` (the caller's cursor, advanced to the
  /// current integral) over workers × `window`, clamped to [0, 1]. The
  /// worker count is read now, so elastic scale-out shows from the next
  /// window on. This is what /proc/stat-style CPU monitors report.
  double window_utilization(double& last_integral, SimTime window) const;

  /// Attaches a span-event recorder (nullptr detaches; not owned).
  void set_trace(trace::TraceRecorder* recorder) { trace_ = recorder; }

 protected:
  // -- variant hooks --------------------------------------------------------
  // A derived tier customises what happens between thread admission and
  // local service (begin_local_work: the base queues for a worker at once;
  // the OLTP tier first acquires record locks, possibly parking the request
  // in a lock waiter queue) and what happens the instant local service ends
  // (after_local_service: the base does nothing; the OLTP tier releases the
  // transaction's locks and wakes granted waiters). Both run inside the
  // tier's normal event flow, so overriding them never changes the FIFO
  // tier's event stream.

  /// Called once per admission, after the thread is taken and the enter
  /// stamp written. Must eventually lead to queue_for_worker(slot).
  virtual void begin_local_work(std::uint32_t slot) { queue_for_worker(slot); }

  /// Called when `slot`'s local service completes, after its span is
  /// recorded and before the request departs or forwards downstream. The
  /// freeing worker is already available.
  virtual void after_local_service(std::uint32_t /*slot*/) {}

  /// Hands the request to the worker bank: starts service immediately when
  /// a worker is free and nothing queued ahead, else joins the FIFO wait
  /// queue. The tail of the admission path, also the resume point for a
  /// derived tier once its pre-service work (lock acquisition) is done.
  void queue_for_worker(std::uint32_t slot);

  Simulator& sim_;
  RequestPool& pool_;
  /// Cached &pool_.hot(): the SoA lanes every per-event write lands in.
  RequestHotArena* hot_;
  TierConfig config_;
  std::size_t index_;
  WorkStation station_;
  trace::TraceRecorder* trace_ = nullptr;

 private:
  friend class NTierSystem;

  void admit(std::uint32_t slot);
  void pump();
  void on_service_done(std::uint32_t slot);
  void forward_downstream(std::uint32_t slot);
  /// Called by the downstream tier when our request's reply returns;
  /// buffer_reply as for depart().
  void on_reply_from_downstream(std::uint32_t slot, bool buffer_reply = false);
  /// Request departs this tier; propagates the reply upstream. With
  /// buffer_reply (a batch drain) the front tier stages the reply for the
  /// batch reply sink instead of delivering it on the spot.
  void depart(std::uint32_t slot, bool buffer_reply = false);
  /// Called by `this` after freeing a thread: pulls the oldest request
  /// blocked in the upstream tier, if any.
  void pull_blocked_from_upstream();
  /// Upstream-facing admission used by forward/pull paths.
  bool accept_from_upstream(std::uint32_t slot);

  // -- quantized batch drain (station in grouped-completion mode) ----------
  /// Station callback: one whole same-instant completion group. Spans and
  /// variant hooks run per member, then the batch forwards downstream in one
  /// call (or departs member by member), the freed workers are re-pumped
  /// once, and the front tier delivers the batch's replies in one span.
  void on_service_batch_done(const std::uint32_t* slots, std::size_t n);
  /// Batched admission from the upstream tier: offers all `n` packed slot
  /// indices, admits the prefix that fits (admission cannot free threads, so
  /// acceptance is prefix-closed), counts the rest rejected, and returns the
  /// number admitted.
  std::size_t accept_batch_from_upstream(const std::uint32_t* slots, std::size_t n);
  /// Batch end: delivers the front tier's buffered replies, if any.
  void flush_replies();

  /// Appends this tier's consolidated kTierSpan event (queue enter +
  /// service start + service end in one record) iff a recorder is attached.
  /// Called at local-service end, when all three times are known.
  void mark_span(std::uint32_t slot) {
#ifndef MEMCA_TRACE_DISABLED
    if (trace_ == nullptr) return;
    const Request& req = *pool_.get(slot);
    const TierTrace& span = hot_->stamp(slot, index_);
    trace_->record(trace::TraceEvent{sim_.now(), req.id, span.enter,
                                     static_cast<double>(span.service_start), req.user,
                                     static_cast<std::int16_t>(index_),
                                     trace::EventKind::kTierSpan,
                                     static_cast<std::uint8_t>(req.attempt())});
#else
    (void)slot;
#endif
  }

  TierServer* downstream_ = nullptr;
  TierServer* upstream_ = nullptr;
  InlineFunction<void(Request*)> reply_sink_;
  InlineFunction<void(Request* const*, std::size_t)> batch_reply_sink_;
  /// True iff the station runs grouped completions (service_quantum_us > 0).
  bool batched_ = false;
  /// Front-tier reply staging during a batch drain; always empty between
  /// events. Reserved to the thread limit, so buffering never allocates.
  std::vector<Request*> reply_buf_;

  /// Occupancy of both queues is bounded by the thread limit Q_i, so they
  /// are pre-sized to it at construction and never allocate while serving.
  /// Entries are pool-slot indices: a queue sweep walks packed u32s.
  RingQueue<std::uint32_t> wait_queue_;
  RingQueue<std::uint32_t> blocked_;
  int awaiting_reply_ = 0;
  int resident_ = 0;

  std::int64_t offered_ = 0;
  std::int64_t admitted_ = 0;
  std::int64_t rejected_ = 0;
  std::int64_t completed_ = 0;
  LatencyHistogram residence_time_;

 public:
  /// Checkpoint of this tier's request-visible state. Queue contents are
  /// pool-slot indices (slots never relocate, so they stay valid across a
  /// rollback); the thread limit round-trips because add/remove_capacity
  /// mutates it. Topology (downstream/upstream wiring, trace attachment) is
  /// construction-time state and not captured.
  struct Snapshot {
    int threads = 0;
    WorkStation::Snapshot station;
    RingQueue<std::uint32_t>::Snapshot wait_queue;
    RingQueue<std::uint32_t>::Snapshot blocked;
    int awaiting_reply = 0;
    int resident = 0;
    std::int64_t offered = 0;
    std::int64_t admitted = 0;
    std::int64_t rejected = 0;
    std::int64_t completed = 0;
    LatencyHistogram residence_time;
  };

  void capture(Snapshot& out) const {
    MEMCA_CHECK_MSG(reply_buf_.empty(), "reply batch must be flushed between events");
    out.threads = config_.threads;
    station_.capture(out.station);
    wait_queue_.capture(out.wait_queue);
    blocked_.capture(out.blocked);
    out.awaiting_reply = awaiting_reply_;
    out.resident = resident_;
    out.offered = offered_;
    out.admitted = admitted_;
    out.rejected = rejected_;
    out.completed = completed_;
    out.residence_time = residence_time_;
  }

  void restore(const Snapshot& snap) {
    config_.threads = snap.threads;
    station_.restore(snap.station);
    wait_queue_.restore(snap.wait_queue);
    blocked_.restore(snap.blocked);
    awaiting_reply_ = snap.awaiting_reply;
    resident_ = snap.resident;
    offered_ = snap.offered;
    admitted_ = snap.admitted;
    rejected_ = snap.rejected;
    completed_ = snap.completed;
    residence_time_ = snap.residence_time;
  }
};

}  // namespace memca::queueing
