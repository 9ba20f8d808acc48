#include "workload/prober.h"

#include <gtest/gtest.h>

#include "queueing/ntier.h"

namespace memca::workload {
namespace {

struct Fixture {
  Simulator sim;
  queueing::NTierSystem system{sim, {{"front", 100, 4}, {"mid", 50, 2}, {"back", 25, 2}}};
  RequestRouter router{system};
  ProberConfig config;
  Fixture() { config.demand_us = {100.0, 200.0, 300.0}; }
};

TEST(Prober, SendsAtConfiguredPeriod) {
  Fixture f;
  f.config.period = msec(200);
  Prober prober(f.sim, f.router, f.config, Rng(1));
  prober.start();
  f.sim.run_until(sec(std::int64_t{10}));
  // Fires immediately, then every 200 ms: 50 probes in 10 s (+1 at t=0).
  EXPECT_NEAR(static_cast<double>(prober.probes_sent()), 51.0, 1.0);
  EXPECT_EQ(prober.probes_dropped(), 0);
}

TEST(Prober, ObservationsTrackResponseTimes) {
  Fixture f;
  Prober prober(f.sim, f.router, f.config, Rng(2));
  prober.start();
  f.sim.run_until(sec(std::int64_t{20}));
  EXPECT_GT(prober.observations_in_window(sec(std::int64_t{20})), 50u);
  // Idle system: probe RT is sub-millisecond-ish.
  EXPECT_LT(prober.quantile_in_window(0.95, sec(std::int64_t{20})), msec(20));
  EXPECT_GT(prober.mean_in_window(sec(std::int64_t{20})), 0.0);
}

TEST(Prober, WindowingExcludesOldObservations) {
  Fixture f;
  Prober prober(f.sim, f.router, f.config, Rng(3));
  prober.start();
  f.sim.run_until(sec(std::int64_t{10}));
  const auto recent = prober.observations_in_window(sec(std::int64_t{2}));
  const auto all = prober.observations_in_window(sec(std::int64_t{100}));
  EXPECT_LT(recent, all);
  EXPECT_NEAR(static_cast<double>(recent), 10.0, 2.0);  // 200 ms period
}

TEST(Prober, DroppedProbeScoresPenalty) {
  Simulator sim;
  queueing::NTierSystem system(sim, {{"front", 1, 1}});
  RequestRouter router(system);
  // Saturate the single thread forever.
  const int blocker = router.register_source(nullptr, nullptr);
  auto req = router.make_request(blocker);
  req->demand_us = {1e12};
  router.submit(std::move(req));

  ProberConfig config;
  config.demand_us = {100.0};
  Prober prober(sim, router, config, Rng(4));
  prober.start();
  sim.run_until(sec(std::int64_t{5}));
  EXPECT_GT(prober.probes_dropped(), 0);
  EXPECT_GE(prober.quantile_in_window(0.5, sec(std::int64_t{5})), sec(std::int64_t{1}));
}

TEST(Prober, QuantileOfEmptyWindowIsZero) {
  Fixture f;
  Prober prober(f.sim, f.router, f.config, Rng(5));
  EXPECT_EQ(prober.quantile_in_window(0.95, sec(std::int64_t{1})), 0);
  EXPECT_EQ(prober.mean_in_window(sec(std::int64_t{1})), 0.0);
}

TEST(Prober, StopHaltsProbing) {
  Fixture f;
  Prober prober(f.sim, f.router, f.config, Rng(6));
  prober.start();
  f.sim.run_until(sec(std::int64_t{2}));
  prober.stop();
  const auto sent = prober.probes_sent();
  f.sim.run_until(sec(std::int64_t{4}));
  EXPECT_EQ(prober.probes_sent(), sent);
}

TEST(Prober, WindowCapacityBoundsMemory) {
  Fixture f;
  f.config.period = msec(1);
  f.config.window_capacity = 100;
  Prober prober(f.sim, f.router, f.config, Rng(7));
  prober.start();
  f.sim.run_until(sec(std::int64_t{2}));
  EXPECT_LE(prober.observations_in_window(sec(std::int64_t{10})), 100u);
}

TEST(ProberDeathTest, RejectsBackoffsThatOverflowSimTime) {
  Fixture f;
  f.config.max_retries = 43;
  Prober fits(f.sim, f.router, f.config, Rng(1));
  f.config.max_retries = 44;
  EXPECT_DEATH(Prober(f.sim, f.router, f.config, Rng(1)), "fit SimTime");
  f.config.max_retries = -1;
  EXPECT_DEATH(Prober(f.sim, f.router, f.config, Rng(1)), "fit SimTime");
}

}  // namespace
}  // namespace memca::workload
