#include "queueing/tier.h"

#include <algorithm>

#include "common/check.h"

namespace memca::queueing {

TierServer::TierServer(Simulator& sim, RequestPool& pool, TierConfig config,
                       std::size_t tier_index)
    : sim_(sim),
      pool_(pool),
      hot_(&pool.hot()),
      config_(std::move(config)),
      index_(tier_index),
      station_(sim, config_.workers, [this](std::uint32_t s) { on_service_done(s); }) {
  MEMCA_CHECK_MSG(config_.threads >= 1, "a tier needs at least one thread");
  MEMCA_CHECK_MSG(config_.workers >= 1, "a tier needs at least one worker");
  // At most `threads` requests are resident, so neither queue can outgrow
  // the thread limit; pre-sizing makes serving allocation-free.
  wait_queue_.reserve(static_cast<std::size_t>(config_.threads));
  blocked_.reserve(static_cast<std::size_t>(config_.threads));
  if (config_.service_quantum_us > 0) {
    batched_ = true;
    // A batch drain's departures are bounded by residency; pre-size the
    // reply staging so the front tier buffers without allocating.
    reply_buf_.reserve(static_cast<std::size_t>(config_.threads));
    station_.enable_batch_completions(
        static_cast<SimTime>(config_.service_quantum_us),
        [this](const std::uint32_t* s, std::size_t n) { on_service_batch_done(s, n); });
  }
}

void TierServer::set_downstream(TierServer* downstream) {
  MEMCA_CHECK_MSG(downstream_ == nullptr, "downstream already wired");
  MEMCA_CHECK(downstream != nullptr && downstream != this);
  downstream_ = downstream;
  MEMCA_CHECK_MSG(downstream->upstream_ == nullptr, "downstream already has an upstream");
  downstream->upstream_ = this;
}

void TierServer::set_speed_multiplier(double multiplier) {
  station_.set_speed(multiplier);
  trace::emit(trace_, trace::TraceEvent{sim_.now(), 0, 0, multiplier, -1,
                                        static_cast<std::int16_t>(index_),
                                        trace::EventKind::kCapacity, 0});
}

double TierServer::window_utilization(double& last_integral, SimTime window) const {
  const double integral = busy_worker_time_us();
  const double delta = integral - last_integral;
  last_integral = integral;
  const double denom = static_cast<double>(workers()) * static_cast<double>(window);
  return std::clamp(delta / denom, 0.0, 1.0);
}

void TierServer::add_capacity(int workers, int extra_threads) {
  MEMCA_CHECK_MSG(extra_threads >= 0, "cannot shrink the thread limit");
  station_.add_workers(workers);
  config_.threads += extra_threads;
  wait_queue_.reserve(static_cast<std::size_t>(config_.threads));
  blocked_.reserve(static_cast<std::size_t>(config_.threads));
  pump();
  // New threads may also unblock requests parked in the upstream tier.
  pull_blocked_from_upstream();
}

void TierServer::remove_capacity(int workers, int fewer_threads) {
  MEMCA_CHECK_MSG(fewer_threads >= 0, "thread reduction must be non-negative");
  station_.remove_workers(workers);
  config_.threads = std::max({1, station_.workers(), config_.threads - fewer_threads});
}

void TierServer::set_reply_sink(InlineFunction<void(Request*)> sink) {
  MEMCA_CHECK(static_cast<bool>(sink));
  reply_sink_ = std::move(sink);
}

void TierServer::set_batch_reply_sink(InlineFunction<void(Request* const*, std::size_t)> sink) {
  MEMCA_CHECK(static_cast<bool>(sink));
  MEMCA_CHECK_MSG(batched_, "a batch reply sink needs a quantized tier");
  batch_reply_sink_ = std::move(sink);
}

bool TierServer::try_submit(Request* req) {
  MEMCA_CHECK(req != nullptr);
  if (full()) {
    reject_offers(1);
    return false;
  }
  ++offered_;
  // Stage the per-tier demands into the stamp lane (so the admit/pump fast
  // paths never chase the Request body) only once the request is in: a
  // rejected attempt's stamps are never read, and during an overload storm
  // rejections outnumber admissions a thousandfold.
  hot_->stage_demands(req->pool_slot, req->demand_us);
  admit(req->pool_slot);
  return true;
}

void TierServer::reject_offers(std::int64_t n) {
  offered_ += n;
  rejected_ += n;
}

bool TierServer::accept_from_upstream(std::uint32_t slot) {
  return accept_batch_from_upstream(&slot, 1) == 1;
}

void TierServer::admit(std::uint32_t slot) {
  ++resident_;
  ++admitted_;
  hot_->tier(slot) = static_cast<std::int16_t>(index_);
  hot_->stamp(slot, index_).enter = sim_.now();
  begin_local_work(slot);
}

void TierServer::queue_for_worker(std::uint32_t slot) {
  TierTrace& tr = hot_->stamp(slot, index_);
  // Fast path: an admit that can start does so directly — no queue
  // round-trip, no pump call. Between events a free worker implies an empty
  // wait queue, but mid-completion (depart → pull_blocked_from_upstream,
  // before on_service_done's pump) both can hold at once, and FIFO demands
  // the queued request win the freed worker — hence the empty() check.
  if (station_.has_free_worker() && wait_queue_.empty()) {
    tr.service_start = sim_.now();
    hot_->state(slot) = RequestState::kInService;
    station_.start(slot, tr.demand);
  } else {
    hot_->state(slot) = RequestState::kWaiting;
    wait_queue_.push_back(slot);
  }
}

void TierServer::pump() {
  while (station_.has_free_worker() && !wait_queue_.empty()) {
    const std::uint32_t slot = wait_queue_.front();
    wait_queue_.pop_front();
    TierTrace& tr = hot_->stamp(slot, index_);
    tr.service_start = sim_.now();
    hot_->state(slot) = RequestState::kInService;
    station_.start(slot, tr.demand);
  }
}

void TierServer::on_service_done(std::uint32_t slot) {
  mark_span(slot);
  // Variant hook: an OLTP tier releases this transaction's record locks and
  // resumes granted waiters before the slot departs (two-phase release).
  after_local_service(slot);
  if (downstream_ == nullptr) {
    depart(slot);
  } else {
    forward_downstream(slot);
  }
  // The worker that finished is free; take the next waiting request.
  if (!wait_queue_.empty()) pump();
}

void TierServer::forward_downstream(std::uint32_t slot) {
  if (downstream_->accept_from_upstream(slot)) {
    ++awaiting_reply_;
  } else {
    // Downstream thread pool exhausted: hold our thread and wait to be
    // pulled. This is the cross-tier overflow propagation step.
    hot_->state(slot) = RequestState::kBlockedDownstream;
    blocked_.push_back(slot);
  }
}

void TierServer::on_reply_from_downstream(std::uint32_t slot, bool buffer_reply) {
  MEMCA_CHECK(awaiting_reply_ > 0);
  --awaiting_reply_;
  depart(slot, buffer_reply);
}

void TierServer::depart(std::uint32_t slot, bool buffer_reply) {
  TierTrace& tr = hot_->stamp(slot, index_);
  tr.leave = sim_.now();
  MEMCA_CHECK(resident_ > 0);
  --resident_;
  ++completed_;
  residence_time_.record(sim_.now() - tr.enter);

  // Deliver the reply upstream first (it departs every upstream tier at the
  // same instant — the response path is negligible), then backfill the
  // thread we just freed from the upstream blocked queue.
  if (upstream_ != nullptr) {
    upstream_->on_reply_from_downstream(slot, buffer_reply);
  } else if (buffer_reply && static_cast<bool>(batch_reply_sink_)) {
    // Batch drain: stage the reply; flush_replies() delivers the whole span
    // before the drain's event returns.
    reply_buf_.push_back(pool_.get(slot));
  } else {
    MEMCA_CHECK_MSG(static_cast<bool>(reply_sink_), "front tier needs a reply sink");
    reply_sink_(pool_.get(slot));
  }
  pull_blocked_from_upstream();
}

void TierServer::on_service_batch_done(const std::uint32_t* slots, std::size_t n) {
  // Singleton groups — the common case off-burst, when completions rarely
  // coincide even on the grid — take the per-slot path: identical cost to
  // exact mode (per-request reply delivery), none of the batch staging.
  if (n == 1) {
    on_service_done(slots[0]);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    mark_span(slots[i]);
    // Variant hook, per member: an OLTP tier releases the transaction's
    // record locks and resumes granted waiters (which may start service on
    // workers this very group just freed).
    after_local_service(slots[i]);
  }
  if (downstream_ == nullptr) {
    for (std::size_t i = 0; i < n; ++i) depart(slots[i], /*buffer_reply=*/true);
  } else {
    const std::size_t taken = downstream_->accept_batch_from_upstream(slots, n);
    awaiting_reply_ += static_cast<int>(taken);
    for (std::size_t i = taken; i < n; ++i) {
      // Downstream thread pool exhausted mid-batch: the rest hold our
      // threads and wait to be pulled (cross-tier overflow propagation).
      hot_->state(slots[i]) = RequestState::kBlockedDownstream;
      blocked_.push_back(slots[i]);
    }
  }
  // The group's workers are all free; take the next waiting requests.
  if (!wait_queue_.empty()) pump();
  flush_replies();
}

std::size_t TierServer::accept_batch_from_upstream(const std::uint32_t* slots,
                                                   std::size_t n) {
  offered_ += static_cast<std::int64_t>(n);
  std::size_t taken = 0;
  // Admission only ever consumes threads, so the accepted set is a prefix:
  // once full, every later member of the batch is rejected.
  while (taken < n && !full()) {
    admit(slots[taken]);
    ++taken;
  }
  rejected_ += static_cast<std::int64_t>(n - taken);
  return taken;
}

void TierServer::flush_replies() {
  TierServer* front = this;
  while (front->upstream_ != nullptr) front = front->upstream_;
  std::vector<Request*>& buf = front->reply_buf_;
  if (buf.empty()) return;
  front->batch_reply_sink_(buf.data(), buf.size());
  buf.clear();
}

void TierServer::pull_blocked_from_upstream() {
  if (upstream_ == nullptr) return;
  while (!full() && !upstream_->blocked_.empty()) {
    const std::uint32_t slot = upstream_->blocked_.front();
    upstream_->blocked_.pop_front();
    ++upstream_->awaiting_reply_;
    ++offered_;
    admit(slot);
  }
}

}  // namespace memca::queueing
