#include "oltp/oltp_tier.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace memca::oltp {

using queueing::RequestState;

OltpTierServer::OltpTierServer(Simulator& sim, queueing::RequestPool& pool,
                               queueing::TierConfig config, std::size_t tier_index,
                               OltpConfig oltp, Rng rng)
    : TierServer(sim, pool, std::move(config), tier_index),
      oltp_(oltp),
      rng_(std::move(rng)),
      zipf_(oltp_.zipf_theta, oltp_.num_records),
      locks_(oltp_.num_records) {
  MEMCA_CHECK_MSG(oltp_.short_txn.records >= 0 && oltp_.long_txn.records >= 0,
                  "transaction record counts must be non-negative");
  MEMCA_CHECK_MSG(oltp_.backoff_base_us >= 1, "NO_WAIT backoff base must be positive");
  MEMCA_CHECK_MSG(oltp_.backoff_cap >= 0 && oltp_.backoff_cap <= 20,
                  "backoff exponent cap out of range");
  // At most `threads` transactions are resident, so a release batch can
  // never wake more waiters than that.
  granted_scratch_.reserve(static_cast<std::size_t>(config_.threads));
  resumed_scratch_.reserve(static_cast<std::size_t>(config_.threads));
}

void OltpTierServer::ensure_lanes(std::uint32_t slot) {
  const std::uint32_t slots = slot + 1;
  if (slots <= record_count_.size()) return;
  records_.resize(static_cast<std::size_t>(slots) * kMaxTxnRecords, 0);
  write_mask_.resize(slots, 0);
  record_count_.resize(slots, 0);
  acquired_.resize(slots, 0);
  retries_.resize(slots, 0);
  wait_start_.resize(slots, -1);
  first_grant_.resize(slots, -1);
  locks_.ensure_txns(slots);
}

void OltpTierServer::begin_local_work(std::uint32_t slot) {
  ensure_lanes(slot);

  // Sample the transaction profile: class, Zipf-skewed record ids, and a
  // per-record write flag. Sorting and deduplicating (write flags OR-merge
  // on a duplicate) gives ordered acquisition its deadlock-freedom and
  // prevents a transaction from self-conflicting.
  const bool is_long = rng_.chance(oltp_.long_txn_fraction);
  const TxnClass& cls = is_long ? oltp_.long_txn : oltp_.short_txn;
  const int sampled = std::min(cls.records, kMaxTxnRecords);

  std::uint32_t ids[kMaxTxnRecords];
  bool writes[kMaxTxnRecords];
  for (int i = 0; i < sampled; ++i) {
    ids[i] = static_cast<std::uint32_t>(zipf_(rng_));
    writes[i] = rng_.chance(cls.write_ratio);
  }
  // Insertion sort carrying the write flag: sampled <= 32.
  for (int i = 1; i < sampled; ++i) {
    const std::uint32_t id = ids[i];
    const bool w = writes[i];
    int j = i - 1;
    for (; j >= 0 && ids[j] > id; --j) {
      ids[j + 1] = ids[j];
      writes[j + 1] = writes[j];
    }
    ids[j + 1] = id;
    writes[j + 1] = w;
  }

  std::uint32_t* rec = &records_[static_cast<std::size_t>(slot) * kMaxTxnRecords];
  std::uint32_t mask = 0;
  int count = 0;
  for (int i = 0; i < sampled; ++i) {
    if (count > 0 && rec[count - 1] == ids[i]) {
      if (writes[i]) mask |= 1u << (count - 1);  // duplicate: merge the mode
      continue;
    }
    rec[count] = ids[i];
    if (writes[i]) mask |= 1u << count;
    ++count;
  }
  write_mask_[slot] = mask;
  record_count_[slot] = static_cast<std::uint8_t>(count);
  acquired_[slot] = 0;
  retries_[slot] = 0;
  wait_start_[slot] = -1;
  first_grant_[slot] = -1;

  // A long transaction does proportionally more local work; its staged
  // demand (and therefore its lock hold) scales before the worker reads it.
  // Re-quantized: the multiplier pushes the staged (already gridded) demand
  // off the grid, and quantized mode needs every demand on it.
  queueing::TierTrace& tr = hot_->stamp(slot, index_);
  tr.demand = hot_->quantize(tr.demand * cls.demand_multiplier);

  continue_acquisition(slot);
}

void OltpTierServer::continue_acquisition(std::uint32_t slot) {
  const std::uint32_t* rec = &records_[static_cast<std::size_t>(slot) * kMaxTxnRecords];
  const std::uint32_t mask = write_mask_[slot];
  const int count = record_count_[slot];
  const bool wait = oltp_.scheme == CcScheme::kWaitFifo;

  while (acquired_[slot] < count) {
    const int i = acquired_[slot];
    const bool exclusive = (mask & (1u << i)) != 0;
    switch (locks_.try_acquire(slot, rec[i], exclusive, wait)) {
      case LockTable::Acquire::kGranted:
        if (first_grant_[slot] < 0) first_grant_[slot] = sim_.now();
        ++acquired_[slot];
        break;
      case LockTable::Acquire::kQueued:
        hot_->state(slot) = RequestState::kLockWait;
        if (wait_start_[slot] < 0) {
          wait_start_[slot] = sim_.now();
          ++lock_waits_;
        }
        return;
      case LockTable::Acquire::kBusy: {
        // NO_WAIT: abort, release everything, back off, retry. Nobody can
        // be parked behind us under a pure NO_WAIT scheme, but release()
        // still reports grants for robustness.
        granted_scratch_.clear();
        for (int k = 0; k < acquired_[slot]; ++k) {
          locks_.release(slot, rec[k], granted_scratch_);
        }
        acquired_[slot] = 0;
        first_grant_[slot] = -1;
        ++aborts_;
        if (wait_start_[slot] < 0) {
          wait_start_[slot] = sim_.now();
          ++lock_waits_;
        }
        const int exp = std::min<int>(retries_[slot], oltp_.backoff_cap);
        if (retries_[slot] < 0xff) ++retries_[slot];
        hot_->state(slot) = RequestState::kLockWait;
        // Deterministic (jitter-free) exponential backoff; the closure is
        // trivially copyable, so it survives a snapshot/rollback. The
        // transaction holds its tier thread throughout, so `slot` cannot
        // be recycled before the retry fires.
        sim_.schedule_in(oltp_.backoff_base_us << exp,
                         [this, slot] { retry(slot); });
        for (std::uint32_t g : granted_scratch_) on_lock_granted(g);
        return;
      }
    }
  }

  // Every lock held: settle the wait span (if the transaction ever stalled)
  // and hand the request to the worker bank.
  if (wait_start_[slot] >= 0) {
    lock_wait_time_.record(sim_.now() - wait_start_[slot]);
    const queueing::Request& req = *pool_.get(slot);
    trace::emit(trace_, trace::TraceEvent{sim_.now(), req.id, wait_start_[slot], 0.0,
                                          req.user, static_cast<std::int16_t>(index_),
                                          trace::EventKind::kLockWaitSpan,
                                          static_cast<std::uint8_t>(req.attempt())});
  }
  queue_for_worker(slot);
}

void OltpTierServer::on_lock_granted(std::uint32_t slot) {
  if (first_grant_[slot] < 0) first_grant_[slot] = sim_.now();
  ++acquired_[slot];
  continue_acquisition(slot);
}

void OltpTierServer::retry(std::uint32_t slot) {
  MEMCA_DCHECK(hot_->state(slot) == RequestState::kLockWait);
  continue_acquisition(slot);
}

void OltpTierServer::after_local_service(std::uint32_t slot) {
  ++commits_;
  const int count = record_count_[slot];
  if (count == 0) return;
  // Two-phase release: free every record first, then resume the granted
  // waiters — a waiter resumed mid-release could otherwise re-queue behind
  // records this transaction still holds.
  granted_scratch_.clear();
  const std::uint32_t* rec = &records_[static_cast<std::size_t>(slot) * kMaxTxnRecords];
  for (int i = 0; i < count; ++i) locks_.release(slot, rec[i], granted_scratch_);
  if (first_grant_[slot] >= 0) lock_hold_time_.record(sim_.now() - first_grant_[slot]);
  record_count_[slot] = 0;
  acquired_[slot] = 0;
  // Resume from the second scratch: a resumed waiter can reach an abort
  // path that clobbers granted_scratch_.
  std::swap(granted_scratch_, resumed_scratch_);
  for (std::uint32_t g : resumed_scratch_) on_lock_granted(g);
  resumed_scratch_.clear();
}

void OltpTierServer::capture(Snapshot& out) const {
  locks_.capture(out.locks);
  out.rng = rng_;
  out.records.assign(records_.begin(), records_.end());
  out.write_mask.assign(write_mask_.begin(), write_mask_.end());
  out.record_count.assign(record_count_.begin(), record_count_.end());
  out.acquired.assign(acquired_.begin(), acquired_.end());
  out.retries.assign(retries_.begin(), retries_.end());
  out.wait_start.assign(wait_start_.begin(), wait_start_.end());
  out.first_grant.assign(first_grant_.begin(), first_grant_.end());
  out.lock_wait_time = lock_wait_time_;
  out.lock_hold_time = lock_hold_time_;
  out.commits = commits_;
  out.aborts = aborts_;
  out.lock_waits = lock_waits_;
}

void OltpTierServer::restore(const Snapshot& snap) {
  locks_.restore(snap.locks);
  rng_ = snap.rng;
  std::copy(snap.records.begin(), snap.records.end(), records_.begin());
  std::copy(snap.write_mask.begin(), snap.write_mask.end(), write_mask_.begin());
  std::copy(snap.record_count.begin(), snap.record_count.end(), record_count_.begin());
  std::copy(snap.acquired.begin(), snap.acquired.end(), acquired_.begin());
  std::copy(snap.retries.begin(), snap.retries.end(), retries_.begin());
  std::copy(snap.wait_start.begin(), snap.wait_start.end(), wait_start_.begin());
  std::copy(snap.first_grant.begin(), snap.first_grant.end(), first_grant_.begin());
  lock_wait_time_ = snap.lock_wait_time;
  lock_hold_time_ = snap.lock_hold_time;
  commits_ = snap.commits;
  aborts_ = snap.aborts;
  lock_waits_ = snap.lock_waits;
}

}  // namespace memca::oltp
