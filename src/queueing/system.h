// Minimal surface shared by the two system models (n-tier and tandem), so
// workload generators, probers and routers can drive either interchangeably.
//
// The system owns a RequestPool and with it every request in flight: callers
// acquire() a pooled request, fill it in, and submit(Request*); the system
// releases the request back to the pool after the completion or drop
// callback returns. Ownership by pool slot replaces the per-request
// unique_ptr plus unordered_map in-flight table of earlier revisions —
// completion hands the callback the same pointer that travelled the tiers,
// with no hash probe and no free(). Callbacks are InlineFunctions, so
// delivering one is an indirect call, not a std::function dispatch.
#pragma once

#include <cstdint>

#include "common/inline_callback.h"
#include "queueing/request.h"
#include "queueing/request_pool.h"
#include "trace/recorder.h"

namespace memca::queueing {

class RequestSystem {
 public:
  using RequestFn = InlineFunction<void(const Request&)>;
  /// Batched completion delivery: a packed span of requests finishing at one
  /// instant (the quantized completion-group drain).
  using BatchRequestFn = InlineFunction<void(Request* const*, std::size_t)>;

  virtual ~RequestSystem() = default;

  /// Number of tiers/stations a request passes through (demand_us size).
  virtual std::size_t depth() const = 0;

  /// Acquires a pooled request (fields reset) for the caller to fill and
  /// submit. Requests that end up not submitted may be released directly.
  Request* acquire() { return pool_.acquire(); }
  RequestPool& pool() { return pool_; }

  /// Submits a pool-owned request; returns false if it was dropped
  /// immediately. Either way the system now owns the request — the pointer
  /// must not be used after the completion/drop callback has run.
  virtual bool submit(Request* req) = 0;

  /// Whether a submit() issued right now would be admitted (entry-point
  /// capacity only). Lets a generator skip work that is wasted on a
  /// rejection — e.g. demand sampling during an overload storm, where
  /// rejected attempts outnumber admissions a thousandfold. Nothing changes
  /// between this check and a synchronous submit, so the answer is exact.
  virtual bool accepting() const { return true; }

  /// Counts `n` attempts rejected at the entry point without a Request each:
  /// the counters of n submit() calls that return false (submitted, dropped,
  /// and the entry tier's offered/rejected), but no drop callbacks — the
  /// caller settles those attempts itself. Only valid while accepting() is
  /// false.
  virtual void reject_at_door(std::int64_t n) {
    submitted_ += n;
    dropped_ += n;
  }

  /// Whether a recorder is attached, i.e. whether trace_door_drop records.
  bool tracing() const { return trace_ != nullptr; }

  /// Records the kDrop event submit() emits for one attempt rejected at the
  /// entry point (no-op without a recorder).
  void trace_door_drop(SimTime now, Request::Id id, std::int32_t user, int attempt) const {
    trace::emit(trace_, trace::TraceEvent{now, id, 0, 0.0, user, 0, trace::EventKind::kDrop,
                                          static_cast<std::uint8_t>(attempt)});
  }

  /// Completion callback: fires when a reply reaches the client side. The
  /// referenced request dies when the callback returns.
  void set_on_complete(RequestFn fn) { on_complete_ = std::move(fn); }
  /// Batch completion callback (quantized mode): one call per completion
  /// group instead of one per request. Systems that never batch ignore it;
  /// when unset, a batching system falls back to per-request on_complete.
  /// Every referenced request dies when the callback returns.
  void set_on_complete_batch(BatchRequestFn fn) { on_complete_batch_ = std::move(fn); }
  /// Drop callback: fires when the system rejects an attempt (the client's
  /// TCP layer retransmits). Same lifetime rule as on_complete.
  void set_on_drop(RequestFn fn) { on_drop_ = std::move(fn); }

  // -- shared counters (lifetime totals) ------------------------------------
  std::int64_t submitted() const { return submitted_; }
  std::int64_t completed() const { return completed_; }
  /// Attempts the system rejected (each one triggers the drop callback
  /// exactly once — the client's TCP layer retransmits).
  std::int64_t dropped() const { return dropped_; }
  /// Requests currently owned by the system (admitted, not yet replied).
  std::int64_t in_flight() const { return in_flight_; }

  /// Attaches a span-event recorder to every tier/station of the system
  /// (nullptr detaches). The system does not own the recorder.
  virtual void set_trace(trace::TraceRecorder* recorder) { trace_ = recorder; }

  /// Checkpoint of the state shared by both system models: the request pool
  /// and the lifetime counters. The completion/drop callbacks are wiring,
  /// not state, and are left untouched by restore().
  struct CountersSnapshot {
    RequestPool::Snapshot pool;
    std::int64_t submitted = 0;
    std::int64_t completed = 0;
    std::int64_t dropped = 0;
    std::int64_t in_flight = 0;
  };

  void capture_counters(CountersSnapshot& out) const {
    pool_.capture(out.pool);
    out.submitted = submitted_;
    out.completed = completed_;
    out.dropped = dropped_;
    out.in_flight = in_flight_;
  }

  void restore_counters(const CountersSnapshot& snap) {
    pool_.restore(snap.pool);
    submitted_ = snap.submitted;
    completed_ = snap.completed;
    dropped_ = snap.dropped;
    in_flight_ = snap.in_flight;
  }

 protected:
  RequestPool pool_;
  RequestFn on_complete_;
  BatchRequestFn on_complete_batch_;
  RequestFn on_drop_;
  trace::TraceRecorder* trace_ = nullptr;
  std::int64_t submitted_ = 0;
  std::int64_t completed_ = 0;
  std::int64_t dropped_ = 0;
  std::int64_t in_flight_ = 0;
};

}  // namespace memca::queueing
