#include "workload/clients.h"

#include <gtest/gtest.h>

#include "queueing/ntier.h"
#include "workload/backoff.h"

namespace memca::workload {
namespace {

struct Fixture {
  Simulator sim;
  queueing::NTierSystem system;
  RequestRouter router;
  explicit Fixture(std::vector<queueing::TierConfig> tiers = {{"front", 200, 4},
                                                              {"back", 100, 2}})
      : system(sim, std::move(tiers)), router(system) {}
};

WorkloadProfile two_tier_profile(SimTime think = sec(std::int64_t{1})) {
  return uniform_profile({100.0, 500.0}, think);
}

TEST(ClosedLoopClients, ThroughputApproximatesUsersOverThinkTime) {
  Fixture f;
  ClientConfig config;
  config.num_users = 100;
  ClosedLoopClients clients(f.sim, f.router, two_tier_profile(), config, Rng(1));
  clients.start();
  f.sim.run_until(sec(std::int64_t{100}));
  // N / (Z + R) with Z = 1 s and R ~ 1 ms: about 100 req/s.
  EXPECT_NEAR(clients.throughput(), 100.0, 5.0);
  EXPECT_EQ(clients.dropped_attempts(), 0);
}

TEST(ClosedLoopClients, RecordsResponseTimes) {
  Fixture f;
  ClientConfig config;
  config.num_users = 10;
  config.record_response_series = true;
  ClosedLoopClients clients(f.sim, f.router, two_tier_profile(), config, Rng(2));
  clients.start();
  f.sim.run_until(sec(std::int64_t{20}));
  EXPECT_GT(clients.response_times().count(), 100);
  // Unloaded system: p99 well below 10 ms.
  EXPECT_LT(clients.response_times().quantile(0.99), msec(10));
  EXPECT_EQ(clients.response_series().size(),
            static_cast<std::size_t>(clients.response_times().count()));
}

TEST(ClosedLoopClients, WarmupSuppressesEarlyStats) {
  Fixture f;
  ClientConfig config;
  config.num_users = 10;
  config.record_response_series = true;
  config.stats_warmup = sec(std::int64_t{10});
  ClosedLoopClients clients(f.sim, f.router, two_tier_profile(), config, Rng(3));
  clients.start();
  f.sim.run_until(sec(std::int64_t{5}));
  EXPECT_GT(clients.completed(), 0);
  EXPECT_EQ(clients.response_times().count(), 0);
  f.sim.run_until(sec(std::int64_t{20}));
  EXPECT_GT(clients.response_times().count(), 0);
  EXPECT_GE(clients.response_series().front().time, sec(std::int64_t{10}));
}

TEST(ClosedLoopClients, DroppedRequestRetransmitsAfterRto) {
  // One user, one thread in the whole system: a second arrival would need
  // the system full. Easier: tiny system, many users.
  Fixture f({{"front", 2, 1}, {"back", 1, 1}});
  ClientConfig config;
  config.num_users = 30;
  config.stats_warmup = 0;
  // Long services so the 2-thread system is usually full.
  ClosedLoopClients clients(f.sim, f.router,
                            uniform_profile({100.0, 50000.0}, sec(std::int64_t{1})), config,
                            Rng(4));
  clients.start();
  f.sim.run_until(sec(std::int64_t{60}));
  EXPECT_GT(clients.dropped_attempts(), 0);
  EXPECT_GT(clients.retransmitted_completions(), 0);
  // Retransmitted completions pay at least the 1 s RTO.
  EXPECT_GE(clients.response_times().max(), sec(std::int64_t{1}));
}

TEST(ClosedLoopClients, AbandonsAfterMaxRetries) {
  // A system permanently saturated by one near-eternal request.
  Fixture f({{"front", 1, 1}, {"back", 1, 1}});
  ClientConfig config;
  config.num_users = 5;
  config.max_retries = 1;
  ClosedLoopClients clients(f.sim, f.router,
                            uniform_profile({100.0, 1e9}, sec(std::int64_t{1})), config,
                            Rng(5));
  clients.start();
  f.sim.run_until(sec(std::int64_t{30}));
  EXPECT_GT(clients.failed(), 0);
}

TEST(ClosedLoopClients, UsersStayBusyOrThinking) {
  // In-flight requests can never exceed the user population.
  Fixture f;
  ClientConfig config;
  config.num_users = 50;
  ClosedLoopClients clients(f.sim, f.router, two_tier_profile(msec(100)), config, Rng(6));
  clients.start();
  for (int step = 0; step < 50; ++step) {
    f.sim.run_for(msec(100));
    EXPECT_LE(f.system.in_flight(), 50);
  }
}

TEST(ClosedLoopClients, DeterministicAcrossRuns) {
  auto run_once = [] {
    Fixture f;
    ClientConfig config;
    config.num_users = 20;
    ClosedLoopClients clients(f.sim, f.router, two_tier_profile(), config, Rng(7));
    clients.start();
    f.sim.run_until(sec(std::int64_t{30}));
    return std::pair<std::int64_t, SimTime>(clients.completed(),
                                            clients.response_times().quantile(0.9));
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(ClosedLoopClientsDeathTest, RejectsBackoffsThatOverflowSimTime) {
  // With the 1 s floor the backoff after attempt 43 (2^43 s) would leave no
  // room to add it to the clock: 43 retries is the most a config may ask
  // for. Larger settings used to overflow SimTime mid-run.
  static_assert(backoff_fits(sec(std::int64_t{1}), 43));
  static_assert(!backoff_fits(sec(std::int64_t{1}), 44));
  static_assert(backoff_fits(1, 62) && !backoff_fits(1, 63) && !backoff_fits(1, 1000));
  Fixture f;
  ClientConfig config;
  config.max_retries = 43;
  ClosedLoopClients fits(f.sim, f.router, two_tier_profile(), config, Rng(1));
  config.max_retries = 44;
  EXPECT_DEATH(ClosedLoopClients(f.sim, f.router, two_tier_profile(), config, Rng(1)),
               "fit SimTime");
  config.mode = ClientMode::kCohort;
  config.max_retries = 300;
  EXPECT_DEATH(ClosedLoopClients(f.sim, f.router, two_tier_profile(), config, Rng(1)),
               "fit SimTime");
  config.max_retries = 6;
  config.min_rto = 0;
  EXPECT_DEATH(ClosedLoopClients(f.sim, f.router, two_tier_profile(), config, Rng(1)),
               "fit SimTime");
}

TEST(ClosedLoopClientsDeathTest, CohortRejectsAnRtoShorterThanItsTick) {
  // The cohort agenda's armed event waits for at most the next tick; a drop
  // the system reports on its own must park at or after it.
  Fixture f;
  ClientConfig config;
  config.mode = ClientMode::kCohort;
  config.cohort_tick = msec(50);
  config.min_rto = msec(50);
  ClosedLoopClients fits(f.sim, f.router, two_tier_profile(), config, Rng(1));
  config.min_rto = msec(49);
  EXPECT_DEATH(ClosedLoopClients(f.sim, f.router, two_tier_profile(), config, Rng(1)),
               "min_rto >= cohort_tick");
  // Exact mode has no tick to wait behind.
  config.mode = ClientMode::kExact;
  ClosedLoopClients exact(f.sim, f.router, two_tier_profile(), config, Rng(1));
}

}  // namespace
}  // namespace memca::workload
