#include "queueing/ntier.h"

#include "common/check.h"
#include "common/log.h"

namespace memca::queueing {

NTierSystem::NTierSystem(Simulator& sim, std::vector<TierConfig> tiers)
    : NTierSystem(sim, std::move(tiers), TierFactory{}) {}

NTierSystem::NTierSystem(Simulator& sim, std::vector<TierConfig> tiers,
                         const TierFactory& factory)
    : sim_(sim) {
  MEMCA_CHECK_MSG(!tiers.empty(), "an n-tier system needs at least one tier");
  pool_.set_depth(tiers.size());
  tiers_.reserve(tiers.size());
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    std::unique_ptr<TierServer> tier;
    if (factory) tier = factory(sim_, pool_, tiers[i], i);
    if (!tier) tier = std::make_unique<TierServer>(sim_, pool_, tiers[i], i);
    tiers_.push_back(std::move(tier));
  }
  for (std::size_t i = 0; i + 1 < tiers_.size(); ++i) {
    tiers_[i]->set_downstream(tiers_[i + 1].get());
  }
  tiers_.front()->set_reply_sink([this](Request* r) { on_reply(r); });
  // Quantized mode is a chain-wide property: demands are rounded once, at
  // stage_demands time, so every tier must share one grid.
  const std::uint32_t quantum = tiers_.front()->config().service_quantum_us;
  for (std::size_t i = 1; i < tiers_.size(); ++i) {
    MEMCA_CHECK_MSG(tiers_[i]->config().service_quantum_us == quantum,
                    "service_quantum_us must be uniform across the tier chain");
  }
  if (quantum > 0) {
    pool_.hot().set_quantum(static_cast<double>(quantum));
    tiers_.front()->set_batch_reply_sink(
        [this](Request* const* reqs, std::size_t n) { on_reply_batch(reqs, n); });
  }
  if (!satisfies_condition1()) {
    MEMCA_LOG(kInfo) << "tier thread limits are not strictly decreasing; the analytic "
                        "fill-up equations (Condition 1) will not apply";
  }
}

void NTierSystem::set_trace(trace::TraceRecorder* recorder) {
  trace_ = recorder;
  for (auto& tier : tiers_) tier->set_trace(recorder);
}

bool NTierSystem::submit(Request* req) {
  MEMCA_CHECK(req != nullptr);
  MEMCA_CHECK_MSG(req->demand_us.size() == tiers_.size(),
                  "request needs one demand entry per tier");
  ++submitted_;
  if (!tiers_.front()->try_submit(req)) {
    ++dropped_;
    trace_door_drop(sim_.now(), req->id, req->user, req->attempt());
    if (on_drop_) on_drop_(*req);
    // Released only after the callback: a reentrant submit from inside
    // on_drop_ must not recycle this request out from under the caller.
    pool_.release(req);
    return false;
  }
  ++in_flight_;
  return true;
}

void NTierSystem::reject_at_door(std::int64_t n) {
  MEMCA_DCHECK(!accepting());
  RequestSystem::reject_at_door(n);
  tiers_.front()->reject_offers(n);
}

TierServer& NTierSystem::tier(std::size_t i) {
  MEMCA_CHECK(i < tiers_.size());
  return *tiers_[i];
}

const TierServer& NTierSystem::tier(std::size_t i) const {
  MEMCA_CHECK(i < tiers_.size());
  return *tiers_[i];
}

bool NTierSystem::satisfies_condition1() const {
  for (std::size_t i = 0; i + 1 < tiers_.size(); ++i) {
    if (tiers_[i]->threads() <= tiers_[i + 1]->threads()) return false;
  }
  return true;
}

void NTierSystem::on_reply(Request* req) {
  ++completed_;
  MEMCA_DCHECK(in_flight_ > 0);
  --in_flight_;
  if (on_complete_) on_complete_(*req);
  pool_.release(req);
}

void NTierSystem::on_reply_batch(Request* const* reqs, std::size_t n) {
  completed_ += static_cast<std::int64_t>(n);
  MEMCA_DCHECK(in_flight_ >= static_cast<std::int64_t>(n));
  in_flight_ -= static_cast<std::int64_t>(n);
  if (on_complete_batch_) {
    on_complete_batch_(reqs, n);
  } else if (on_complete_) {
    for (std::size_t i = 0; i < n; ++i) on_complete_(*reqs[i]);
  }
  // Released only after the callbacks, matching on_reply's reentrancy rule.
  for (std::size_t i = 0; i < n; ++i) pool_.release(reqs[i]);
}

}  // namespace memca::queueing
