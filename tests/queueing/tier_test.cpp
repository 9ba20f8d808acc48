#include "queueing/tier.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace memca::queueing {
namespace {

using test::make_request;

// A single tier with a reply sink standing in for the client side. The
// test owns the pool the system would normally own; replied requests are
// deliberately kept live so the assertions can read their stamps.
struct SingleTier {
  Simulator sim;
  RequestPool pool;
  TierServer tier;
  std::vector<Request*> replies;
  SingleTier() : tier(sim, pool, TierConfig{"solo", 4, 2}, 0) {
    pool.set_depth(1);
    tier.set_reply_sink([this](Request* r) { replies.push_back(r); });
  }
};

TEST(TierServer, ServesAndReplies) {
  SingleTier f;
  Request* req = make_request(f.pool, 1, {1000.0});
  EXPECT_TRUE(f.tier.try_submit(req));
  EXPECT_EQ(f.tier.resident(), 1);
  f.sim.run_until(msec(2));
  ASSERT_EQ(f.replies.size(), 1u);
  EXPECT_EQ(f.tier.resident(), 0);
  EXPECT_EQ(f.tier.completed(), 1);
  EXPECT_EQ(req->tier_time(0), usec(1000));
}

TEST(TierServer, RejectsWhenThreadsExhausted) {
  SingleTier f;
  std::vector<Request*> reqs;
  for (int i = 0; i < 4; ++i) {
    reqs.push_back(make_request(f.pool, i, {100000.0}));
    EXPECT_TRUE(f.tier.try_submit(reqs.back()));
  }
  Request* extra = make_request(f.pool, 99, {100000.0});
  EXPECT_FALSE(f.tier.try_submit(extra));
  EXPECT_EQ(f.tier.rejected(), 1);
  EXPECT_EQ(f.tier.offered(), 5);
  EXPECT_EQ(f.tier.admitted(), 4);
}

TEST(TierServer, FifoServiceOrder) {
  SingleTier f;
  std::vector<Request*> reqs;
  for (int i = 0; i < 4; ++i) {
    reqs.push_back(make_request(f.pool, i, {1000.0}));
    f.tier.try_submit(reqs.back());
  }
  f.sim.run_all();
  ASSERT_EQ(f.replies.size(), 4u);
  // 2 workers, equal demands: completion order must follow admission order.
  EXPECT_EQ(f.replies[0]->id, 0);
  EXPECT_EQ(f.replies[1]->id, 1);
  EXPECT_EQ(f.replies[2]->id, 2);
  EXPECT_EQ(f.replies[3]->id, 3);
}

TEST(TierServer, QueueStateAccounting) {
  SingleTier f;
  std::vector<Request*> reqs;
  for (int i = 0; i < 4; ++i) {
    reqs.push_back(make_request(f.pool, i, {100000.0}));
    f.tier.try_submit(reqs.back());
  }
  EXPECT_EQ(f.tier.in_service(), 2);
  EXPECT_EQ(f.tier.waiting(), 2);
  EXPECT_EQ(f.tier.blocked_on_downstream(), 0);
  EXPECT_EQ(f.tier.awaiting_reply(), 0);
  EXPECT_TRUE(f.tier.full());
}

TEST(TierServer, ResidenceTimeIncludesQueueing) {
  SingleTier f;
  std::vector<Request*> reqs;
  for (int i = 0; i < 3; ++i) {
    reqs.push_back(make_request(f.pool, i, {1000.0}));
    f.tier.try_submit(reqs.back());
  }
  f.sim.run_all();
  // Third request waited 1000 us for a worker, then served 1000 us.
  EXPECT_EQ(reqs[2]->tier_time(0), usec(2000));
  EXPECT_GE(f.tier.residence_time().quantile(1.0), usec(2000));
}

TEST(TierServer, SpeedMultiplierThrottlesService) {
  SingleTier f;
  Request* req = make_request(f.pool, 1, {1000.0});
  f.tier.try_submit(req);
  f.tier.set_speed_multiplier(0.1);
  f.sim.run_until(msec(9));
  EXPECT_TRUE(f.replies.empty());
  f.sim.run_until(msec(10));
  EXPECT_EQ(f.replies.size(), 1u);
}

TEST(TierServer, WindowUtilizationNormalisesByWorkers) {
  // Two workers: one busy request is half the tier, two are all of it.
  SingleTier f;
  double cursor = f.tier.busy_worker_time_us();
  f.tier.try_submit(make_request(f.pool, 1, {100000.0}));
  f.sim.run_until(msec(100));
  EXPECT_DOUBLE_EQ(f.tier.window_utilization(cursor, msec(100)), 0.5);
  f.tier.try_submit(make_request(f.pool, 2, {100000.0}));
  f.tier.try_submit(make_request(f.pool, 3, {100000.0}));
  f.sim.run_until(msec(200));
  EXPECT_DOUBLE_EQ(f.tier.window_utilization(cursor, msec(100)), 1.0);
  // The cursor advanced: an idle window reads zero.
  f.sim.run_until(msec(300));
  EXPECT_DOUBLE_EQ(f.tier.window_utilization(cursor, msec(100)), 0.0);
}

TEST(TierServer, WindowUtilizationClampsToOne) {
  // A window shorter than the busy span it is charged with would read 2.0.
  SingleTier f;
  double cursor = 0.0;
  f.tier.try_submit(make_request(f.pool, 1, {100000.0}));
  f.tier.try_submit(make_request(f.pool, 2, {100000.0}));
  f.sim.run_until(msec(100));
  EXPECT_DOUBLE_EQ(f.tier.window_utilization(cursor, msec(50)), 1.0);
  EXPECT_DOUBLE_EQ(cursor, 200000.0);
}

// Two chained tiers exercising the RPC thread-holding semantics.
struct TwoTier {
  Simulator sim;
  RequestPool pool;
  TierServer front;
  TierServer back;
  std::vector<Request*> replies;
  TwoTier()
      : front(sim, pool, TierConfig{"front", 4, 2}, 0),
        back(sim, pool, TierConfig{"back", 2, 1}, 1) {
    pool.set_depth(2);
    front.set_downstream(&back);
    front.set_reply_sink([this](Request* r) { replies.push_back(r); });
  }
};

TEST(TierServer, RequestTraversesBothTiers) {
  TwoTier f;
  Request* req = make_request(f.pool, 1, {1000.0, 2000.0});
  EXPECT_TRUE(f.front.try_submit(req));
  f.sim.run_all();
  ASSERT_EQ(f.replies.size(), 1u);
  EXPECT_EQ(req->tier_time(1), usec(2000));
  // Front residence covers its own service plus the downstream round trip.
  EXPECT_EQ(req->tier_time(0), usec(3000));
}

TEST(TierServer, UpstreamThreadHeldWhileDownstreamServes) {
  TwoTier f;
  Request* req = make_request(f.pool, 1, {100.0, 100000.0});
  f.front.try_submit(req);
  f.sim.run_until(msec(1));
  // Front finished local service but still holds the thread.
  EXPECT_EQ(f.front.resident(), 1);
  EXPECT_EQ(f.front.awaiting_reply(), 1);
  EXPECT_EQ(f.back.resident(), 1);
}

TEST(TierServer, BlockedWhenDownstreamFull) {
  TwoTier f;
  std::vector<Request*> reqs;
  for (int i = 0; i < 4; ++i) {
    reqs.push_back(make_request(f.pool, i, {100.0, 100000.0}));
    f.front.try_submit(reqs.back());
  }
  f.sim.run_until(msec(1));
  // Back tier holds 2 (its thread limit); front finished local service on
  // the other two and they are blocked waiting for a back thread.
  EXPECT_EQ(f.back.resident(), 2);
  EXPECT_EQ(f.front.blocked_on_downstream(), 2);
  EXPECT_EQ(f.front.resident(), 4);
  EXPECT_TRUE(f.front.full());
}

TEST(TierServer, DownstreamPullsBlockedInOrder) {
  TwoTier f;
  std::vector<Request*> reqs;
  for (int i = 0; i < 4; ++i) {
    reqs.push_back(make_request(f.pool, i, {100.0, 10000.0}));
    f.front.try_submit(reqs.back());
  }
  f.sim.run_all();
  ASSERT_EQ(f.replies.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(f.replies[static_cast<std::size_t>(i)]->id, i);
}

TEST(TierServer, BackTierRejectionNeverHappensThroughBlocking) {
  // The upstream holds requests instead of offering them to a full
  // downstream, so downstream rejections stay zero.
  TwoTier f;
  std::vector<Request*> reqs;
  for (int i = 0; i < 4; ++i) {
    reqs.push_back(make_request(f.pool, i, {100.0, 5000.0}));
    f.front.try_submit(reqs.back());
  }
  f.sim.run_all();
  // accept_from_upstream may have refused transiently, but every request
  // ultimately completed exactly once.
  EXPECT_EQ(f.back.completed(), 4);
  EXPECT_EQ(f.front.completed(), 4);
}

TEST(TierServer, ConservationAcrossBurst) {
  TwoTier f;
  std::vector<Request*> reqs;
  // Throttle the back tier, pile up requests, then recover.
  f.back.set_speed_multiplier(0.05);
  for (int i = 0; i < 4; ++i) {
    reqs.push_back(make_request(f.pool, i, {100.0, 1000.0}));
    f.front.try_submit(reqs.back());
  }
  f.sim.run_until(msec(5));
  f.back.set_speed_multiplier(1.0);
  f.sim.run_all();
  EXPECT_EQ(f.replies.size(), 4u);
  EXPECT_EQ(f.front.resident(), 0);
  EXPECT_EQ(f.back.resident(), 0);
}

}  // namespace
}  // namespace memca::queueing
