#include "oltp/oltp_tier.h"

#include <gtest/gtest.h>

#include <vector>

#include "queueing/test_util.h"
#include "support/trace_skip.h"
#include "testbed/rubbos_testbed.h"
#include "trace/attributor.h"

namespace memca::oltp {
namespace {

using queueing::test::make_request;

/// A single OLTP tier with a reply sink standing in for the client side —
/// the direct-tier harness from tier_test.cpp with the lock table in play.
/// Plenty of workers relative to the contention so that any serialization
/// the tests observe comes from locks, not from worker scarcity.
struct SingleOltpTier {
  Simulator sim;
  queueing::RequestPool pool;
  OltpTierServer tier;
  std::vector<queueing::Request*> replies;

  explicit SingleOltpTier(OltpConfig oltp)
      : tier(sim, pool, queueing::TierConfig{"db", 8, 4}, 0, oltp, Rng(99)) {
    pool.set_depth(1);
    tier.set_reply_sink([this](queueing::Request* r) { replies.push_back(r); });
  }
};

/// Every transaction writes the single record: pure serialization.
OltpConfig single_record_exclusive() {
  OltpConfig oltp;
  oltp.num_records = 1;
  oltp.zipf_theta = 0.0;
  oltp.short_txn = TxnClass{1, 1.0, 1.0};
  oltp.long_txn_fraction = 0.0;
  return oltp;
}

TEST(OltpTier, ExclusiveLocksSerializeDespiteFreeWorkers) {
  SingleOltpTier f(single_record_exclusive());
  queueing::Request* a = make_request(f.pool, 0, {1000.0});
  queueing::Request* b = make_request(f.pool, 1, {1000.0});
  ASSERT_TRUE(f.tier.try_submit(a));
  ASSERT_TRUE(f.tier.try_submit(b));
  f.sim.run_all();

  ASSERT_EQ(f.replies.size(), 2u);
  EXPECT_EQ(f.replies[0]->id, 0);
  EXPECT_EQ(f.replies[1]->id, 1);
  // A FIFO tier with 4 workers would finish both at 1 ms; the write lock
  // convoys the second transaction behind the first's full service.
  EXPECT_EQ(a->tier_time(0), usec(1000));
  EXPECT_EQ(b->tier_time(0), usec(2000));
  EXPECT_EQ(f.tier.commits(), 2);
  EXPECT_EQ(f.tier.aborts(), 0);
  EXPECT_EQ(f.tier.lock_waits(), 1);
}

TEST(OltpTier, SharedLocksRunInParallel) {
  OltpConfig oltp = single_record_exclusive();
  oltp.short_txn.write_ratio = 0.0;  // readers only
  SingleOltpTier f(oltp);
  queueing::Request* a = make_request(f.pool, 0, {1000.0});
  queueing::Request* b = make_request(f.pool, 1, {1000.0});
  ASSERT_TRUE(f.tier.try_submit(a));
  ASSERT_TRUE(f.tier.try_submit(b));
  f.sim.run_all();

  ASSERT_EQ(f.replies.size(), 2u);
  EXPECT_EQ(a->tier_time(0), usec(1000));
  EXPECT_EQ(b->tier_time(0), usec(1000));
  EXPECT_EQ(f.tier.lock_waits(), 0);
  EXPECT_EQ(f.tier.commits(), 2);
}

TEST(OltpTier, NoWaitAbortsBackOffAndEventuallyCommit) {
  OltpConfig oltp = single_record_exclusive();
  oltp.scheme = CcScheme::kNoWaitBackoff;
  oltp.backoff_base_us = 100;
  oltp.backoff_cap = 6;
  SingleOltpTier f(oltp);
  queueing::Request* a = make_request(f.pool, 0, {1000.0});
  queueing::Request* b = make_request(f.pool, 1, {1000.0});
  ASSERT_TRUE(f.tier.try_submit(a));
  ASSERT_TRUE(f.tier.try_submit(b));
  f.sim.run_all();

  // The loser aborts at t=0 and on each backoff expiry inside the holder's
  // 1 ms service (100, 300, 700 us), then wins the retry at 1.5 ms.
  ASSERT_EQ(f.replies.size(), 2u);
  EXPECT_EQ(f.tier.commits(), 2);
  EXPECT_EQ(f.tier.aborts(), 4);
  EXPECT_EQ(f.tier.lock_waits(), 1);
  EXPECT_EQ(a->tier_time(0), usec(1000));
  EXPECT_EQ(b->tier_time(0), usec(2500));
  EXPECT_EQ(f.tier.lock_table().waiters(), 0);  // NO_WAIT never parks
}

TEST(OltpTier, LockWaitSpanNestsInsideTheTierWindow) {
  MEMCA_SKIP_IF_TRACE_DISABLED();
  SingleOltpTier f(single_record_exclusive());
  trace::TraceRecorder recorder;
  f.tier.set_trace(&recorder);
  queueing::Request* a = make_request(f.pool, 0, {1000.0});
  queueing::Request* b = make_request(f.pool, 1, {1000.0});
  a->user = 7;
  b->user = 8;
  ASSERT_TRUE(f.tier.try_submit(a));
  ASSERT_TRUE(f.tier.try_submit(b));
  f.sim.run_all();

  // Exactly one transaction stalled -> exactly one span: stalled from t=0
  // (aux) to the grant at t=1000 (time), inside [enter=0, service_start=
  // 1000) of request 1's tier span.
  int spans = 0;
  recorder.for_each([&](const trace::TraceEvent& ev) {
    if (ev.kind != trace::EventKind::kLockWaitSpan) return;
    ++spans;
    EXPECT_EQ(ev.request, 1);
    EXPECT_EQ(ev.time, usec(1000));
    EXPECT_EQ(ev.aux, 0);
    EXPECT_EQ(ev.tier, 0);
    EXPECT_EQ(ev.user, 8);
  });
  EXPECT_EQ(spans, 1);
}

TEST(OltpTier, DemandMultiplierStretchesServiceAndLockHold) {
  OltpConfig oltp = single_record_exclusive();
  oltp.long_txn = TxnClass{1, 1.0, 4.0};
  oltp.long_txn_fraction = 1.0;  // every transaction is long
  SingleOltpTier f(oltp);
  queueing::Request* a = make_request(f.pool, 0, {1000.0});
  ASSERT_TRUE(f.tier.try_submit(a));
  f.sim.run_all();

  // 1 ms staged demand x 4 multiplier: the lock is held 4 ms.
  EXPECT_EQ(a->tier_time(0), usec(4000));
  EXPECT_GE(f.tier.lock_hold_time().quantile(1.0), usec(4000));
}

TEST(OltpTier, ZeroRecordTransactionsCommitWithoutLocking) {
  OltpConfig oltp = single_record_exclusive();
  oltp.short_txn.records = 0;
  SingleOltpTier f(oltp);
  queueing::Request* a = make_request(f.pool, 0, {1000.0});
  queueing::Request* b = make_request(f.pool, 1, {1000.0});
  ASSERT_TRUE(f.tier.try_submit(a));
  ASSERT_TRUE(f.tier.try_submit(b));
  f.sim.run_all();
  EXPECT_EQ(f.replies.size(), 2u);
  EXPECT_EQ(f.tier.commits(), 2);
  EXPECT_EQ(f.tier.lock_waits(), 0);
  EXPECT_EQ(a->tier_time(0), usec(1000));
  EXPECT_EQ(b->tier_time(0), usec(1000));
}

// -- testbed integration -----------------------------------------------------

TEST(OltpTierTestbed, AttributionStaysExactWithLockWaits) {
  MEMCA_SKIP_IF_TRACE_DISABLED();
  // The whole-system check for the new trace span: with the OLTP bottleneck
  // under contention (hot key space, write-heavy) and a burst train
  // degrading the target tier, requests must still attribute their latency
  // exactly — lock wait carved out of queue wait, slack identically zero —
  // and the convoy must actually show up (some lock-wait mass).
  testbed::TestbedConfig config;
  config.trace = true;
  config.bottleneck = testbed::BottleneckKind::kOltp;
  config.oltp.num_records = 64;
  config.oltp.zipf_theta = 0.99;
  config.oltp.short_txn.write_ratio = 0.8;
  config.oltp.long_txn.write_ratio = 0.8;
  testbed::RubbosTestbed bed(config);
  bed.start();
  ASSERT_NE(bed.oltp_tier(), nullptr);

  cloud::Host& host = bed.target_host();
  const cloud::VmId vm = bed.adversary_vm();
  for (int k = 0; k < 10; ++k) {
    const SimTime on = sec(std::int64_t{2}) + k * sec(std::int64_t{2});
    bed.sim().schedule_at(on, [&host, vm] { host.set_memory_activity(vm, 0.0, 0.95); });
    bed.sim().schedule_at(on + msec(500), [&host, vm] { host.clear_memory_activity(vm); });
  }
  bed.sim().run_until(sec(std::int64_t{25}));

  EXPECT_GT(bed.oltp_tier()->commits(), 0);
  EXPECT_GT(bed.oltp_tier()->lock_waits(), 0);

  trace::TailAttributor attributor(*bed.trace(), bed.system().depth());
  ASSERT_GT(attributor.requests().size(), 0u);
  std::int64_t with_lock_wait = 0;
  for (const trace::RequestBreakdown& b : attributor.requests()) {
    EXPECT_EQ(b.slack, 0) << "request " << b.final_request;
    with_lock_wait += b.lock_wait_total() > 0 ? 1 : 0;
  }
  EXPECT_GT(with_lock_wait, 0);
}

TEST(OltpTierTestbed, FifoDefaultHasNoOltpTier) {
  testbed::RubbosTestbed bed;
  EXPECT_EQ(bed.oltp_tier(), nullptr);
}

}  // namespace
}  // namespace memca::oltp
