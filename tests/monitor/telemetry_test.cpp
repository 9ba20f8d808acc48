// The telemetry clock: tick cadence, stop, frame readings landing in the
// monitor series, window-start stamps, fine/coarse agreement, and the
// testbed-level promise that the metrics scrape and the flight recorder ride
// the clock's one tick instead of adding simulator events. The Scraper,
// GaugeSampler and UtilizationSampler suites check the registry scrape, the
// queue-length gauge and the utilization window average, the three duties
// the clock's tick carries.
//
// The asan CI filter selects these four suites by name.
#include "monitor/telemetry.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "core/memca.h"
#include "metrics/registry.h"
#include "queueing/request_pool.h"
#include "testbed/rubbos_testbed.h"

namespace memca::monitor {
namespace {

/// One tier, one worker, two threads; requests occupy the worker for their
/// demand, so the busy integral is exactly the sum of served demand.
struct SoloTier {
  Simulator sim;
  queueing::NTierSystem system{sim, {queueing::TierConfig{"solo", 2, 1}}};

  SoloTier() {
    system.set_on_complete([](const queueing::Request&) {});
    system.set_on_drop([](const queueing::Request&) {});
  }

  /// Submits one request that keeps the worker busy for `demand`.
  void submit(SimTime demand) {
    queueing::Request* req = system.pool().acquire();
    req->id = next_id++;
    req->set_first_sent(sim.now());
    req->set_sent(sim.now());
    req->demand_us = {static_cast<double>(demand)};
    system.submit(req);
  }

  queueing::Request::Id next_id = 1;
};

TEST(TelemetryClock, TicksOncePerWindow) {
  SoloTier f;
  TelemetryClock clock(f.sim, f.system, 0, msec(100));
  std::vector<SimTime> ticks;
  clock.on_frame([&](const TelemetryFrame& frame) {
    EXPECT_EQ(frame.window, msec(100));
    ticks.push_back(frame.now);
  });
  clock.start();
  f.sim.run_until(msec(250));

  // The first frame closes one window after start: 100, 200 ms.
  EXPECT_EQ(ticks, (std::vector<SimTime>{msec(100), msec(200)}));
  ASSERT_EQ(clock.queue_length(0).series().size(), 2u);
  EXPECT_EQ(clock.queue_length(0).series().samples()[0].time, msec(100));
  EXPECT_EQ(clock.target_cpu().series().size(), 2u);
}

TEST(TelemetryClock, StopHaltsTicking) {
  SoloTier f;
  TelemetryClock clock(f.sim, f.system, 0, msec(50));
  int frames = 0;
  clock.on_frame([&](const TelemetryFrame&) { ++frames; });
  clock.start();
  f.sim.run_until(msec(200));
  clock.stop();
  f.sim.run_until(sec(std::int64_t{1}));
  EXPECT_EQ(frames, 4);
  EXPECT_EQ(clock.target_cpu().series().size(), 4u);
  EXPECT_EQ(clock.queue_length(0).series().size(), 4u);
}

TEST(TelemetryClock, FrameReadingsLandInSeries) {
  SoloTier f;
  TelemetryClock clock(f.sim, f.system, 0, msec(100));
  clock.start();
  // Busy for the first half of window one; then at 120 ms three long
  // requests arrive at the two-thread tier: two resident, one rejected.
  f.submit(msec(50));
  f.sim.schedule_at(msec(120), [&f] {
    for (int i = 0; i < 3; ++i) f.submit(sec(std::int64_t{1}));
  });
  f.sim.run_until(msec(250));

  const TelemetryFrame& frame = clock.frame();
  EXPECT_EQ(frame.now, msec(200));
  EXPECT_EQ(frame.tiers, 1u);
  EXPECT_EQ(frame.resident[0], 2);
  EXPECT_EQ(frame.rejected[0], 1);
  EXPECT_DOUBLE_EQ(frame.utilization[0], 0.8);  // busy 120..200 ms
  // No coupling or clients wired: the neutral readings.
  EXPECT_EQ(frame.capacity_multiplier, 1.0);
  EXPECT_EQ(frame.rto_backlog, 0);

  // Utilization is a window average stamped at the window start; queue
  // length is an instantaneous gauge stamped at the tick.
  const auto& cpu = clock.target_cpu().series().samples();
  ASSERT_EQ(cpu.size(), 2u);
  EXPECT_EQ(cpu[0].time, 0);
  EXPECT_DOUBLE_EQ(cpu[0].value, 0.5);
  EXPECT_EQ(cpu[1].time, msec(100));
  EXPECT_DOUBLE_EQ(cpu[1].value, 0.8);
  const auto& queue = clock.queue_length(0).series().samples();
  ASSERT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue[0].time, msec(100));
  EXPECT_DOUBLE_EQ(queue[0].value, 0.0);
  EXPECT_EQ(queue[1].time, msec(200));
  EXPECT_DOUBLE_EQ(queue[1].value, 2.0);
}

TEST(TelemetryClock, FineAndCoarseAgreeOnAverage) {
  // The core sampling-theory fact the paper's stealthiness rests on: mean
  // utilization is granularity-invariant, peaks are not.
  SoloTier f;
  TelemetryClock fine(f.sim, f.system, 0, msec(50));
  TelemetryClock coarse(f.sim, f.system, 0, sec(std::int64_t{1}));
  fine.start();
  coarse.start();
  // ON-OFF busy signal: busy 100 ms out of every 1 s.
  for (std::int64_t k = 0; k < 10; ++k) {
    f.sim.schedule_at(sec(k), [&f] { f.submit(msec(100)); });
  }
  f.sim.run_until(sec(std::int64_t{10}));
  EXPECT_NEAR(fine.target_cpu().series().mean(), 0.1, 1e-9);
  EXPECT_NEAR(coarse.target_cpu().series().mean(), 0.1, 1e-9);
  EXPECT_NEAR(fine.target_cpu().series().max(), 1.0, 1e-9);
  EXPECT_NEAR(coarse.target_cpu().series().max(), 0.1, 1e-9);
}

TEST(Scraper, StopHaltsScraping) {
  // The registry is scraped inside the clock's frame consumer, as the
  // testbed wires it, so stopping the clock stops the scrape.
  SoloTier f;
  metrics::Registry registry;
  registry.counter("c");
  TelemetryClock clock(f.sim, f.system, 0, msec(50));
  clock.on_frame([&registry](const TelemetryFrame& frame) { registry.scrape(frame.now); });
  clock.start();
  f.sim.run_until(msec(200));
  clock.stop();
  f.sim.run_until(sec(std::int64_t{1}));
  EXPECT_EQ(registry.scrapes(), 4);
}

TEST(Scraper, ProbeValuesLandInSeries) {
  // A probe that reads the clock's frame, as the testbed's tier probes do,
  // records the frame's reading at each scrape instant.
  SoloTier f;
  metrics::Registry registry;
  TelemetryClock clock(f.sim, f.system, 0, msec(100));
  registry.probe("resident", {},
                 [&clock] { return static_cast<double>(clock.frame().resident[0]); });
  clock.on_frame([&registry](const TelemetryFrame& frame) { registry.scrape(frame.now); });
  clock.start();
  f.sim.schedule_at(msec(150), [&f] { f.submit(sec(std::int64_t{1})); });
  f.sim.run_until(msec(300));
  const TimeSeries* series = registry.series("resident");
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->size(), 3u);
  EXPECT_EQ(series->samples()[1].time, msec(200));
  EXPECT_DOUBLE_EQ(series->samples()[0].value, 0.0);
  EXPECT_DOUBLE_EQ(series->samples()[1].value, 1.0);
  EXPECT_DOUBLE_EQ(series->samples()[2].value, 1.0);
}

TEST(GaugeSampler, SeesValueChanges) {
  // The queue-length series gauges the resident count at each tick: a
  // request resident over [25, 35) ms shows at 30 ms only.
  SoloTier f;
  TelemetryClock clock(f.sim, f.system, 0, msec(10));
  clock.start();
  f.sim.schedule_at(msec(25), [&f] { f.submit(msec(10)); });
  f.sim.run_until(msec(40));
  const auto& s = clock.queue_length(0).series().samples();
  ASSERT_EQ(s.size(), 4u);
  EXPECT_DOUBLE_EQ(s[1].value, 0.0);  // t=20
  EXPECT_DOUBLE_EQ(s[2].value, 1.0);  // t=30
  EXPECT_DOUBLE_EQ(s[3].value, 0.0);  // t=40
}

TEST(GaugeSampler, StopHaltsSampling) {
  SoloTier f;
  TelemetryClock clock(f.sim, f.system, 0, msec(10));
  clock.start();
  f.sim.run_until(msec(50));
  clock.stop();
  const auto n = clock.queue_length(0).series().size();
  EXPECT_EQ(n, 5u);
  f.sim.run_until(msec(100));
  EXPECT_EQ(clock.queue_length(0).series().size(), n);
}

TEST(UtilizationSampler, ComputesWindowAverages) {
  // One worker busy from 0 to 50 ms, then idle.
  SoloTier f;
  TelemetryClock clock(f.sim, f.system, 0, msec(100));
  clock.start();
  f.submit(msec(50));
  f.sim.run_until(msec(300));
  const auto& s = clock.target_cpu().series().samples();
  ASSERT_EQ(s.size(), 3u);
  EXPECT_NEAR(s[0].value, 0.5, 1e-9);  // busy half of [0, 100ms)
  EXPECT_NEAR(s[1].value, 0.0, 1e-9);
  EXPECT_NEAR(s[2].value, 0.0, 1e-9);
  EXPECT_EQ(s[0].time, 0);  // window-start timestamps
  EXPECT_EQ(s[1].time, msec(100));
}

void expect_same_bytes(const TimeSeries& a, const TimeSeries& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.samples().data(), b.samples().data(), a.size() * sizeof(Sample)), 0);
}

/// Seed 42, the Fig. 2 memory-lock attack (L = 500 ms, I = 2 s), 30 s.
std::unique_ptr<testbed::RubbosTestbed> run_fig2(bool observed) {
  testbed::TestbedConfig config;
  config.seed = 42;
  config.metrics = observed;
  config.flightrec = observed;
  auto bed = std::make_unique<testbed::RubbosTestbed>(config);
  bed->start();
  core::MemcaConfig attack_config;
  attack_config.enable_controller = false;
  attack_config.params.burst_length = msec(500);
  attack_config.params.burst_interval = sec(std::int64_t{2});
  attack_config.params.type = cloud::MemoryAttackType::kMemoryLock;
  auto attack = bed->make_attack(attack_config);
  attack->start();
  bed->sim().run_for(sec(std::int64_t{30}));
  attack->stop();
  return bed;
}

TEST(TelemetryClock, MetricsAndFlightRecorderAddNoEvents) {
  // The scrape and the flight recorder read the clock's frame inside its
  // one tick, so turning both planes on adds no simulator event and leaves
  // every monitor sample byte-identical.
  const auto plain = run_fig2(false);
  const auto observed = run_fig2(true);
  ASSERT_NE(observed->registry(), nullptr);
  ASSERT_NE(observed->flight(), nullptr);
  // One scrape and one timeline frame per 50 ms tick: 600 in 30 s.
  EXPECT_EQ(observed->registry()->scrapes(), 600);
  EXPECT_EQ(observed->flight()->timeline().total(), 600u);
  EXPECT_EQ(observed->target_cpu().series().size(), 600u);
  EXPECT_EQ(plain->sim().events_executed(), observed->sim().events_executed());
  EXPECT_EQ(plain->sim().pending_high_water(), observed->sim().pending_high_water());
  expect_same_bytes(plain->target_cpu().series(), observed->target_cpu().series());
  for (std::size_t i = 0; i < plain->system().num_tiers(); ++i) {
    expect_same_bytes(plain->queue_gauge(i).series(), observed->queue_gauge(i).series());
  }
}

}  // namespace
}  // namespace memca::monitor
