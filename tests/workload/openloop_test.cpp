#include "workload/openloop.h"

#include <gtest/gtest.h>

#include "queueing/ntier.h"
#include "queueing/tandem.h"

namespace memca::workload {
namespace {

TEST(OpenLoopSource, GeneratesAtConfiguredRate) {
  Simulator sim;
  queueing::NTierSystem system(sim, {{"front", 1000, 8}, {"back", 500, 4}});
  RequestRouter router(system);
  OpenLoopConfig config;
  config.rate_per_sec = 200.0;
  OpenLoopSource source(sim, router, uniform_profile({50.0, 100.0}), config, Rng(1));
  source.start();
  sim.run_until(sec(std::int64_t{50}));
  EXPECT_NEAR(static_cast<double>(source.generated()) / 50.0, 200.0, 10.0);
  EXPECT_GT(source.completed(), 0);
}

TEST(OpenLoopSource, StopHaltsArrivals) {
  Simulator sim;
  queueing::NTierSystem system(sim, {{"front", 1000, 8}, {"back", 500, 4}});
  RequestRouter router(system);
  OpenLoopConfig config;
  config.rate_per_sec = 1000.0;
  OpenLoopSource source(sim, router, uniform_profile({50.0, 100.0}), config, Rng(2));
  source.start();
  sim.run_until(sec(std::int64_t{1}));
  source.stop();
  const auto generated = source.generated();
  sim.run_until(sec(std::int64_t{2}));
  EXPECT_EQ(source.generated(), generated);
}

TEST(OpenLoopSource, WorksAgainstTandemSystem) {
  Simulator sim;
  queueing::TandemQueueSystem system(
      sim, {{"s1", 4, queueing::StationConfig::kUnbounded},
            {"s2", 2, queueing::StationConfig::kUnbounded}});
  RequestRouter router(system);
  OpenLoopConfig config;
  config.rate_per_sec = 500.0;
  OpenLoopSource source(sim, router, uniform_profile({100.0, 500.0}), config, Rng(3));
  source.start();
  sim.run_until(sec(std::int64_t{10}));
  EXPECT_GT(source.completed(), 4000);
  EXPECT_EQ(source.failed(), 0);
}

TEST(OpenLoopSource, RetransmitsOnDrop) {
  Simulator sim;
  // Tiny system that drops frequently under a hot open-loop stream.
  queueing::NTierSystem system(sim, {{"front", 2, 1}, {"back", 1, 1}});
  RequestRouter router(system);
  OpenLoopConfig config;
  config.rate_per_sec = 100.0;
  config.retransmit = true;
  OpenLoopSource source(sim, router, uniform_profile({100.0, 20000.0}), config, Rng(4));
  source.start();
  sim.run_until(sec(std::int64_t{30}));
  EXPECT_GT(source.dropped_attempts(), 0);
  // Some retransmitted requests completed with >= 1 s latency.
  EXPECT_GE(source.response_times().max(), sec(std::int64_t{1}));
}

TEST(OpenLoopSource, NoRetransmitCountsFailures) {
  Simulator sim;
  queueing::NTierSystem system(sim, {{"front", 2, 1}, {"back", 1, 1}});
  RequestRouter router(system);
  OpenLoopConfig config;
  config.rate_per_sec = 100.0;
  config.retransmit = false;
  OpenLoopSource source(sim, router, uniform_profile({100.0, 20000.0}), config, Rng(5));
  source.start();
  sim.run_until(sec(std::int64_t{30}));
  EXPECT_GT(source.failed(), 0);
  EXPECT_EQ(source.failed(), source.dropped_attempts());
}

TEST(OpenLoopSource, WarmupFiltersStats) {
  Simulator sim;
  queueing::NTierSystem system(sim, {{"front", 100, 4}, {"back", 50, 2}});
  RequestRouter router(system);
  OpenLoopConfig config;
  config.rate_per_sec = 100.0;
  config.stats_warmup = sec(std::int64_t{5});
  OpenLoopSource source(sim, router, uniform_profile({50.0, 100.0}), config, Rng(6));
  source.start();
  sim.run_until(sec(std::int64_t{4}));
  EXPECT_EQ(source.response_times().count(), 0);
  sim.run_until(sec(std::int64_t{10}));
  EXPECT_GT(source.response_times().count(), 0);
}

TEST(OpenLoopSourceDeathTest, RejectsBackoffsThatOverflowSimTime) {
  Simulator sim;
  queueing::NTierSystem system(sim, {{"front", 10, 1}, {"back", 10, 1}});
  RequestRouter router(system);
  OpenLoopConfig config;
  config.max_retries = 43;
  OpenLoopSource fits(sim, router, uniform_profile({50.0, 100.0}), config, Rng(1));
  config.max_retries = 44;
  EXPECT_DEATH(OpenLoopSource(sim, router, uniform_profile({50.0, 100.0}), config, Rng(1)),
               "fit SimTime");
  config.max_retries = 3;
  config.min_rto = -1;
  EXPECT_DEATH(OpenLoopSource(sim, router, uniform_profile({50.0, 100.0}), config, Rng(1)),
               "fit SimTime");
}

}  // namespace
}  // namespace memca::workload
