// Multiplexes one RequestSystem's completion/drop callbacks across several
// traffic sources (the closed-loop client population and the MemCA prober
// share the target system, exactly as in the paper's Figure 8 topology).
//
// Each source registers once and receives only its own requests back; the
// router also allocates globally unique request ids and stamps the source.
#pragma once

#include <vector>

#include "common/check.h"
#include "common/inline_callback.h"
#include "queueing/system.h"

namespace memca::workload {

class RequestRouter {
 public:
  using CompleteFn = InlineFunction<void(const queueing::Request&)>;
  using DropFn = InlineFunction<void(const queueing::Request&)>;
  /// Batched completion delivery (quantized mode): a packed span of requests
  /// belonging to ONE source, in completion order.
  using BatchCompleteFn = InlineFunction<void(queueing::Request* const*, std::size_t)>;

  explicit RequestRouter(queueing::RequestSystem& system);
  RequestRouter(const RequestRouter&) = delete;
  RequestRouter& operator=(const RequestRouter&) = delete;

  /// Registers a traffic source; returns its source id.
  int register_source(CompleteFn on_complete, DropFn on_drop);

  /// Upgrades a registered source to batched completion delivery (quantized
  /// mode): when the system hands the router a completion batch, this
  /// source's members are delivered as packed same-source spans instead of
  /// one call per request. Sources without a batch callback keep receiving
  /// per-request on_complete; completion observers always run per request.
  void set_batch_complete(int source, BatchCompleteFn fn);

  /// Registers an observer invoked for EVERY completion (any source),
  /// before the owning source's callback. For measurement taps that need
  /// the full per-tier trace (e.g. the Fig. 7 observed-time histograms).
  void add_completion_observer(CompleteFn fn);

  /// Acquires a pooled request stamped with `source` and a unique id. The
  /// system's pool owns it; submit it (or release it back) before it leaks
  /// a live slot until the pool dies.
  queueing::Request* make_request(int source);

  /// Submits to the underlying system. Returns false if dropped (the
  /// source's drop callback has already run in that case). The pointer must
  /// not be used afterwards.
  bool submit(queueing::Request* req);

  /// Request ids are (serial << kSourceBits) | source, so consecutive ids
  /// of one source are kIdStride apart.
  static constexpr int kSourceBits = 8;
  static constexpr queueing::Request::Id kIdStride = queueing::Request::Id{1} << kSourceBits;

  /// Counts `n` attempts of `source` that the system rejects at its entry
  /// point right now (RequestSystem::reject_at_door) and reserves the n ids
  /// their make_request calls would have taken, so later ids do not move.
  /// Returns the first reserved id; the rest follow kIdStride apart. No drop
  /// callback runs: the source settles the attempts itself.
  queueing::Request::Id reject_at_door(int source, std::int64_t n);

  queueing::RequestSystem& system() { return system_; }
  std::size_t depth() const { return system_.depth(); }

  /// Checkpoint of the router: the id allocator plus the registration
  /// counts. Sources/observers registered after the capture are dropped by
  /// restore() (their owners are being torn down or re-made by the caller);
  /// ones registered before it are wiring, left untouched so their bound
  /// closures stay valid.
  struct Snapshot {
    std::size_t num_sources = 0;
    std::size_t num_observers = 0;
    queueing::Request::Id next_id = 1;
  };

  void capture(Snapshot& out) const {
    out.num_sources = sources_.size();
    out.num_observers = completion_observers_.size();
    out.next_id = next_id_;
  }

  void restore(const Snapshot& snap) {
    MEMCA_CHECK(snap.num_sources <= sources_.size() &&
                snap.num_observers <= completion_observers_.size());
    sources_.resize(snap.num_sources);
    completion_observers_.resize(snap.num_observers);
    next_id_ = snap.next_id;
  }

 private:
  struct Source {
    CompleteFn on_complete;
    DropFn on_drop;
    BatchCompleteFn on_complete_batch;
  };

  queueing::RequestSystem& system_;
  std::vector<Source> sources_;
  std::vector<CompleteFn> completion_observers_;
  queueing::Request::Id next_id_ = 1;
};

}  // namespace memca::workload
