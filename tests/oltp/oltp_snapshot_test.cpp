// Checkpoint invariants for the OLTP bottleneck: a warm (rolled-back) world
// with a live lock table must be indistinguishable from a cold one — held
// locks, parked waiters and in-flight backoffs included — at every sweep
// thread count, and rolling the lock state back must allocate nothing.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "support/counting_alloc.h"
#include "testbed/attack_lab.h"
#include "testbed/rubbos_testbed.h"

namespace memca::oltp {
namespace {

using testbed::AttackLabConfig;
using testbed::AttackLabResult;

/// A contention-heavy OLTP bottleneck: a hot 32-record key space, skewed
/// access, write-heavy — lock queues are guaranteed live at any instant.
testbed::TestbedConfig contended_testbed() {
  testbed::TestbedConfig config;
  config.bottleneck = testbed::BottleneckKind::kOltp;
  config.oltp.num_records = 32;
  config.oltp.zipf_theta = 0.99;
  config.oltp.short_txn.write_ratio = 0.8;
  config.oltp.long_txn.write_ratio = 0.8;
  return config;
}

/// Three cells sharing one OLTP prefix (warm rollbacks of a world with lock
/// state) plus one NO_WAIT cell whose prefix differs (cold rebuild, and
/// proof that in-flight backoff timers checkpoint too), then two cells that
/// each differ from their predecessor in one double only: one nested two
/// levels deep, one at the top level. A prefix match that missed either
/// would hand the cell its predecessor's world.
std::vector<AttackLabConfig> oltp_grid() {
  std::vector<AttackLabConfig> cells;
  for (SimTime length : {msec(200), msec(400), msec(600)}) {
    AttackLabConfig config;
    config.testbed = contended_testbed();
    config.testbed.metrics = true;
    config.params.burst_length = length;
    config.params.burst_interval = sec(std::int64_t{2});
    config.warmup = sec(std::int64_t{8});
    config.duration = sec(std::int64_t{10});
    cells.push_back(config);
  }
  AttackLabConfig no_wait = cells.back();
  no_wait.testbed.oltp.scheme = CcScheme::kNoWaitBackoff;
  cells.push_back(no_wait);
  AttackLabConfig long_reads = cells.back();
  long_reads.testbed.oltp.long_txn.write_ratio = 0.5;
  cells.push_back(long_reads);
  AttackLabConfig lighter_demand = cells.back();
  lighter_demand.testbed.target_bandwidth_demand_gbps = 10.0;
  cells.push_back(lighter_demand);
  return cells;
}

std::string registry_bytes(const metrics::Registry* registry) {
  std::ostringstream out;
  if (registry != nullptr) registry->serialize(out);
  return out.str();
}

TEST(OltpSnapshotSweep, WarmCellsMatchColdRunsAtEveryThreadCount) {
  const std::vector<AttackLabConfig> grid = oltp_grid();

  std::vector<AttackLabResult> baseline;
  for (const AttackLabConfig& config : grid) {
    baseline.push_back(testbed::run_attack_lab(config));
  }

  for (int threads : {1, 2, 4}) {
    std::vector<AttackLabResult> swept = testbed::run_attack_lab_sweep(grid, threads);
    ASSERT_EQ(swept.size(), baseline.size()) << "threads " << threads;
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      const AttackLabResult& a = baseline[i];
      const AttackLabResult& b = swept[i];
      EXPECT_EQ(a.client_p50, b.client_p50) << "threads " << threads << " cell " << i;
      EXPECT_EQ(a.client_p99, b.client_p99) << "threads " << threads << " cell " << i;
      EXPECT_EQ(a.client_p999, b.client_p999) << "threads " << threads << " cell " << i;
      EXPECT_EQ(a.tier_p95, b.tier_p95) << "threads " << threads << " cell " << i;
      EXPECT_EQ(a.throughput, b.throughput) << "threads " << threads << " cell " << i;
      EXPECT_EQ(a.drops, b.drops) << "threads " << threads << " cell " << i;
      EXPECT_EQ(a.bursts, b.bursts) << "threads " << threads << " cell " << i;
      // The registry bytes cover the OLTP plane too: commit/abort/lock-wait
      // counters, lock-wait/hold histograms, the waiter-count series.
      EXPECT_EQ(registry_bytes(a.registry.get()), registry_bytes(b.registry.get()))
          << "threads " << threads << " cell " << i;
    }
  }
}

/// Everything the OLTP extension can disturb, read after a fixed span.
struct OltpFingerprint {
  SimTime now = 0;
  std::uint64_t events = 0;
  std::int64_t completed = 0, drops = 0;
  std::int64_t commits = 0, aborts = 0, lock_waits = 0;
  int parked = 0;
  SimTime wait_p99 = 0, hold_p99 = 0;
  SimTime client_p99 = 0;
};

OltpFingerprint run_segment(testbed::RubbosTestbed& bed, SimTime span) {
  bed.sim().run_for(span);
  const OltpTierServer& tier = *bed.oltp_tier();
  OltpFingerprint f;
  f.now = bed.sim().now();
  f.events = bed.sim().events_executed();
  f.completed = bed.clients().completed();
  f.drops = bed.clients().dropped_attempts();
  f.commits = tier.commits();
  f.aborts = tier.aborts();
  f.lock_waits = tier.lock_waits();
  f.parked = tier.lock_table().waiters();
  f.wait_p99 = tier.lock_wait_time().quantile(0.99);
  f.hold_p99 = tier.lock_hold_time().quantile(0.99);
  f.client_p99 = bed.clients().response_times().quantile(0.99);
  return f;
}

void expect_fingerprint_eq(const OltpFingerprint& a, const OltpFingerprint& b,
                           int replay) {
  EXPECT_EQ(a.now, b.now) << "replay " << replay;
  EXPECT_EQ(a.events, b.events) << "replay " << replay;
  EXPECT_EQ(a.completed, b.completed) << "replay " << replay;
  EXPECT_EQ(a.drops, b.drops) << "replay " << replay;
  EXPECT_EQ(a.commits, b.commits) << "replay " << replay;
  EXPECT_EQ(a.aborts, b.aborts) << "replay " << replay;
  EXPECT_EQ(a.lock_waits, b.lock_waits) << "replay " << replay;
  EXPECT_EQ(a.parked, b.parked) << "replay " << replay;
  EXPECT_EQ(a.wait_p99, b.wait_p99) << "replay " << replay;
  EXPECT_EQ(a.hold_p99, b.hold_p99) << "replay " << replay;
  EXPECT_EQ(a.client_p99, b.client_p99) << "replay " << replay;
}

TEST(OltpSnapshotRollback, MidTransactionSegmentReplaysExactly) {
  // Snapshot with the lock table at its most entangled: transactions
  // mid-acquisition holding some locks, waiters parked in record FIFO
  // queues, and a degradation burst active so holds are stretched. The
  // segment after the snapshot must replay exactly, twice, from the one
  // snapshot.
  testbed::TestbedConfig config = contended_testbed();
  config.seed = 7;
  testbed::RubbosTestbed bed(config);
  bed.start();

  cloud::Host& host = bed.target_host();
  const cloud::VmId vm = bed.adversary_vm();
  for (int k = 0; k < 12; ++k) {
    const SimTime on = msec(500) + k * sec(std::int64_t{1});
    bed.sim().schedule_at(on, [&host, vm] { host.set_memory_activity(vm, 0.0, 0.95); });
    bed.sim().schedule_at(on + msec(300), [&host, vm] { host.clear_memory_activity(vm); });
  }

  bed.sim().run_until(msec(4650));  // inside burst #4
  ASSERT_NE(bed.oltp_tier(), nullptr);
  ASSERT_GT(bed.oltp_tier()->lock_table().waiters(), 0)
      << "scenario must have parked lock waiters at the snapshot point";
  bed.snapshot();

  const OltpFingerprint first = run_segment(bed, sec(std::int64_t{4}));
  for (int replay = 1; replay <= 2; ++replay) {
    bed.rollback();
    expect_fingerprint_eq(first, run_segment(bed, sec(std::int64_t{4})), replay);
  }
}

TEST(OltpSnapshotRollback, NoWaitBackoffTimersReplayExactly) {
  // Same contract under NO_WAIT: the snapshot lands while aborted
  // transactions have backoff retries parked in the simulator, and the
  // replayed segment (including those retries and the aborts they cause)
  // must be bit-identical.
  testbed::TestbedConfig config = contended_testbed();
  config.oltp.scheme = CcScheme::kNoWaitBackoff;
  config.seed = 7;
  testbed::RubbosTestbed bed(config);
  bed.start();

  cloud::Host& host = bed.target_host();
  const cloud::VmId vm = bed.adversary_vm();
  for (int k = 0; k < 12; ++k) {
    const SimTime on = msec(500) + k * sec(std::int64_t{1});
    bed.sim().schedule_at(on, [&host, vm] { host.set_memory_activity(vm, 0.0, 0.95); });
    bed.sim().schedule_at(on + msec(300), [&host, vm] { host.clear_memory_activity(vm); });
  }

  bed.sim().run_until(msec(4650));
  ASSERT_GT(bed.oltp_tier()->aborts(), 0)
      << "scenario must have NO_WAIT aborts (and pending retries) by the snapshot";
  bed.snapshot();

  const OltpFingerprint first = run_segment(bed, sec(std::int64_t{4}));
  for (int replay = 1; replay <= 2; ++replay) {
    bed.rollback();
    expect_fingerprint_eq(first, run_segment(bed, sec(std::int64_t{4})), replay);
  }
}

TEST(OltpSnapshotRollback, RollbackWithLockStateAllocatesNothing) {
  // The counting-allocator gate extended to the lock table: once the first
  // snapshot exists, rolling back the whole world — lock lanes, transaction
  // lanes, waiter queues included — is pure copy-back into existing
  // capacity.
  testbed::TestbedConfig config = contended_testbed();
  config.seed = 11;
  config.metrics = true;
  config.trace = true;
  testbed::RubbosTestbed bed(config);
  bed.start();

  cloud::Host& host = bed.target_host();
  const cloud::VmId vm = bed.adversary_vm();
  for (int k = 0; k < 8; ++k) {
    const SimTime on = msec(500) + k * sec(std::int64_t{1});
    bed.sim().schedule_at(on, [&host, vm] { host.set_memory_activity(vm, 0.0, 0.9); });
    bed.sim().schedule_at(on + msec(300), [&host, vm] { host.clear_memory_activity(vm); });
  }
  bed.sim().run_until(msec(3650));
  bed.snapshot();

  for (int round = 0; round < 2; ++round) {
    bed.sim().run_for(sec(std::int64_t{2}));
    tests::ScopedAllocationCounter counter;
    bed.rollback();
    EXPECT_EQ(counter.count(), 0) << "round " << round;
  }
}

}  // namespace
}  // namespace memca::oltp
