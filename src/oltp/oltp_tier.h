// A lock/CC-aware TierServer variant: each request is a transaction.
//
// The paper models the bottleneck (MySQL) tier as exponential-service FIFO,
// but a real database tier holds record locks for the duration of each
// transaction. That couples the attack to the tail through a second channel:
// a transient capacity dip stretches service times, service time *is* the
// lock hold time, waiters convoy behind the stretched holders, and the
// convoy outlives the dip — amplification the FIFO model cannot produce at
// the same offered load.
//
// Lifecycle on top of the base tier: admission takes a thread as usual, then
// begin_local_work samples a transaction profile (short/long class, records
// per transaction, per-record write flag) with Zipf-skewed record ids,
// sorts and dedupes the record list (ordered acquisition -> wait-for graph
// is acyclic -> deadlock-free), and acquires the locks in order. Under the
// WAIT scheme an incompatible lock parks the transaction in the record's
// FIFO waiter queue; under NO_WAIT it aborts, releases everything, backs
// off exponentially and retries. Only when every lock is held does the
// transaction queue for a worker; locks release the instant local service
// ends (after_local_service), handing records straight to parked waiters.
//
// Instrumented: one kLockWaitSpan trace event per transaction that ever
// stalled (emitted at final grant, aux = first stall time, nesting inside
// the tier's admission->service window so tail attribution carves lock
// convoy out of queue wait), plus commit/abort/lock-wait counters and
// lock-wait / lock-hold histograms (a metrics registry copies the totals at
// end of run).
#pragma once

#include <cstdint>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"
#include "oltp/lock_table.h"
#include "queueing/tier.h"

namespace memca::oltp {

/// One transaction class of the mix.
struct TxnClass {
  /// Records touched per transaction (clamped to kMaxTxnRecords).
  int records = 4;
  /// Probability each touched record is written (exclusive lock).
  double write_ratio = 0.5;
  /// Scales the tier's staged service demand for this class: a long
  /// transaction does proportionally more local work — and therefore holds
  /// its locks proportionally longer.
  double demand_multiplier = 1.0;

  bool operator==(const TxnClass&) const = default;
};

enum class CcScheme : std::uint8_t {
  /// Incompatible lock -> park in the record's FIFO waiter queue.
  kWaitFifo,
  /// Incompatible lock -> abort, release all, back off, retry (NO_WAIT).
  kNoWaitBackoff,
};

struct OltpConfig {
  /// Key-space size of the lock table.
  std::uint32_t num_records = 2048;
  /// Zipf skew of record selection, in [0, 1). 0 = uniform.
  double zipf_theta = 0.9;
  TxnClass short_txn{4, 0.5, 1.0};
  TxnClass long_txn{12, 0.5, 4.0};
  /// Probability a transaction is drawn from the long class.
  double long_txn_fraction = 0.1;
  CcScheme scheme = CcScheme::kWaitFifo;
  /// NO_WAIT backoff: base << min(retries, cap) microseconds, deterministic
  /// (no jitter — the sim needs bit-reproducible schedules).
  SimTime backoff_base_us = 100;
  int backoff_cap = 6;

  bool operator==(const OltpConfig&) const = default;
};

class OltpTierServer : public queueing::TierServer {
 public:
  /// Widest transaction the lanes can carry (write set as a u32 bit mask).
  static constexpr int kMaxTxnRecords = 32;

  OltpTierServer(Simulator& sim, queueing::RequestPool& pool,
                 queueing::TierConfig config, std::size_t tier_index,
                 OltpConfig oltp, Rng rng);

  const LockTable& lock_table() const { return locks_; }

  // -- stats (always collected) ----------------------------------------------
  std::int64_t commits() const { return commits_; }
  std::int64_t aborts() const { return aborts_; }
  /// Transactions that stalled on at least one lock (waited or aborted).
  std::int64_t lock_waits() const { return lock_waits_; }
  const LatencyHistogram& lock_wait_time() const { return lock_wait_time_; }
  const LatencyHistogram& lock_hold_time() const { return lock_hold_time_; }

  /// Checkpoint of the OLTP extension only — the base TierServer part is
  /// captured through NTierSystem's tier snapshots, so WorldSnapshot
  /// attaches this object a second time for the lock/transaction state.
  struct Snapshot {
    LockTable::Snapshot locks;
    Rng rng{0};
    std::vector<std::uint32_t> records;
    std::vector<std::uint32_t> write_mask;
    std::vector<std::uint8_t> record_count;
    std::vector<std::uint8_t> acquired;
    std::vector<std::uint8_t> retries;
    std::vector<SimTime> wait_start;
    std::vector<SimTime> first_grant;
    LatencyHistogram lock_wait_time;
    LatencyHistogram lock_hold_time;
    std::int64_t commits = 0;
    std::int64_t aborts = 0;
    std::int64_t lock_waits = 0;
  };

  void capture(Snapshot& out) const;
  void restore(const Snapshot& snap);

 protected:
  /// Sample the transaction profile and start ordered lock acquisition.
  void begin_local_work(std::uint32_t slot) override;
  /// Commit: release every record, resume granted waiters.
  void after_local_service(std::uint32_t slot) override;

 private:
  /// Acquires the remaining locks in order; parks / schedules a backoff
  /// retry on conflict, queues for a worker once everything is held.
  void continue_acquisition(std::uint32_t slot);
  /// Resume path for a waiter granted its record inside LockTable::release.
  void on_lock_granted(std::uint32_t slot);
  /// NO_WAIT backoff expiry.
  void retry(std::uint32_t slot);
  /// Grows the transaction lanes to cover pool slot `slot`.
  void ensure_lanes(std::uint32_t slot);

  OltpConfig oltp_;
  Rng rng_;
  FastZipf zipf_;
  LockTable locks_;

  // -- per-transaction SoA lanes, indexed by pool slot (grow-only) ----------
  /// Sorted, deduplicated record list: records_[slot * kMaxTxnRecords + i].
  std::vector<std::uint32_t> records_;
  /// Bit i set -> records_[.. + i] is acquired exclusive.
  std::vector<std::uint32_t> write_mask_;
  std::vector<std::uint8_t> record_count_;
  /// Locks already held (the next one to take is records_[.. + acquired]).
  std::vector<std::uint8_t> acquired_;
  /// NO_WAIT retries so far (saturating; exponent clamps at backoff_cap).
  std::vector<std::uint8_t> retries_;
  /// First moment the transaction stalled on a lock; -1 = never stalled.
  std::vector<SimTime> wait_start_;
  /// First lock grant (lock-hold spans run from here to release); -1 unset.
  std::vector<SimTime> first_grant_;

  /// Scratch for LockTable::release output; bounded by the thread limit.
  std::vector<std::uint32_t> granted_scratch_;
  /// Second scratch the commit path resumes waiters from (swap-protected
  /// against a resumed waiter reusing granted_scratch_).
  std::vector<std::uint32_t> resumed_scratch_;

  LatencyHistogram lock_wait_time_;
  LatencyHistogram lock_hold_time_;
  std::int64_t commits_ = 0;
  std::int64_t aborts_ = 0;
  std::int64_t lock_waits_ = 0;
};

}  // namespace memca::oltp
