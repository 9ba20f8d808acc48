// End-to-end metrics wiring: a short attacked testbed run with the registry
// on must tell the same story as the simulated system — every total the
// registry takes at finalize agrees with an independent count of the same
// events.
#include <gtest/gtest.h>

#include <sstream>

#include "metrics/names.h"
#include "metrics/run_report.h"
#include "testbed/attack_lab.h"
#include "testbed/rubbos_testbed.h"

namespace memca::testbed {
namespace {

TEST(MetricsIntegration, RegistryNullWithoutOptIn) {
  RubbosTestbed bed;
  EXPECT_EQ(bed.registry(), nullptr);
  EXPECT_EQ(bed.release_metrics(), nullptr);
  bed.finalize_metrics();  // must be a no-op, not a crash
}

/// Counters are run totals: a scrape samples only gauges and probes.
/// Callers scrape again after finalize_metrics registered the totals.
void expect_counters_carry_no_series(const metrics::Registry& registry) {
  for (std::size_t i = 0; i < registry.size(); ++i) {
    if (registry.kind(i) != metrics::MetricKind::kCounter) continue;
    EXPECT_TRUE(registry.series_at(i).empty()) << registry.name(i);
  }
}

void expect_counters_match_ground_truth(workload::ClientMode mode) {
  TestbedConfig config;
  config.metrics = true;
  config.client_mode = mode;
  RubbosTestbed bed(config);
  ASSERT_NE(bed.registry(), nullptr);
  bed.start();

  core::MemcaConfig memca;
  memca.enable_controller = false;
  memca.params.burst_length = msec(500);
  memca.params.burst_interval = sec(std::int64_t{2});
  auto attack = bed.make_attack(memca);
  // The bursts without the attack's prober, whose requests would share the
  // system with the clients' own.
  attack->scheduler().start();
  bed.sim().run_for(sec(std::int64_t{30}));
  bed.finalize_metrics(attack.get());

  const metrics::Registry& registry = *bed.registry();
  auto requests = [&](const char* event) {
    return registry.counter_value(metrics::names::kRequestsTotal, {{"event", event}});
  };
  // The clients are the system's only source, so what the system saw is
  // the clients' ground truth. Cohort mode counts its door rejections in
  // bulk, on both sides.
  const queueing::NTierSystem& system = bed.system();
  EXPECT_EQ(requests("submitted"), system.submitted());
  EXPECT_EQ(requests("completed"), system.completed());
  EXPECT_EQ(requests("dropped"), system.dropped());
  EXPECT_GT(requests("dropped"), 0);
  EXPECT_EQ(requests("failed"), bed.clients().failed());
  // Every drop schedules a retransmission unless the request is abandoned.
  EXPECT_EQ(requests("retransmitted"), requests("dropped") - requests("failed"));
  const LatencyHistogram* rt =
      registry.find_histogram(metrics::names::kClientResponseTimeUs);
  ASSERT_NE(rt, nullptr);
  EXPECT_EQ(rt->count(), bed.clients().response_times().count());
  EXPECT_EQ(rt->quantile(0.95), bed.clients().response_times().quantile(0.95));

  for (std::size_t i = 0; i < system.num_tiers(); ++i) {
    const auto& tier = system.tier(i);
    const metrics::Labels label = {{"tier", tier.name()}};
    auto event = [&](const char* e) {
      return registry.counter_value(metrics::names::kTierRequestsTotal,
                                    {{"tier", tier.name()}, {"event", e}});
    };
    EXPECT_EQ(event("offered"), tier.offered()) << tier.name();
    EXPECT_EQ(event("admitted"), tier.admitted()) << tier.name();
    EXPECT_EQ(event("rejected"), tier.rejected()) << tier.name();
    EXPECT_EQ(event("completed"), tier.completed()) << tier.name();
    EXPECT_EQ(event("admitted") + event("rejected"), event("offered")) << tier.name();
    // Scraped utilization/queue series exist and carry one sample per scrape.
    const TimeSeries* util = registry.series(metrics::names::kTierUtilization, label);
    ASSERT_NE(util, nullptr) << tier.name();
    EXPECT_EQ(util->size(), static_cast<std::size_t>(registry.scrapes())) << tier.name();
  }
  // Only the front tier turns attempts away: it sees every submitted
  // attempt and rejects every dropped one.
  auto front = [&](const char* e) {
    return registry.counter_value(metrics::names::kTierRequestsTotal,
                                  {{"tier", system.tier(0).name()}, {"event", e}});
  };
  EXPECT_EQ(front("offered"), requests("submitted"));
  EXPECT_EQ(front("rejected"), requests("dropped"));

  // Engine self-profile synced at finalize.
  EXPECT_EQ(registry.counter_value(metrics::names::kEngineEventsTotal),
            static_cast<std::int64_t>(bed.sim().events_executed()));
  EXPECT_EQ(registry.counter_value(metrics::names::kSimTimeUs), bed.sim().now());
  EXPECT_GT(registry.counter_value(metrics::names::kEnginePendingHighWater), 0);
  // Attack telemetry synced at finalize.
  EXPECT_EQ(registry.counter_value(metrics::names::kAttackBurstsTotal),
            attack->scheduler().bursts_fired());
  EXPECT_EQ(registry.counter_value(metrics::names::kAttackOnTimeUs),
            attack->program().total_on_time());
  // 30 s at the default 50 ms resolution.
  EXPECT_EQ(registry.scrapes(), 600);
  // Later scrapes sample the probes, never the totals.
  bed.sim().run_for(msec(100));
  expect_counters_carry_no_series(registry);
}

TEST(MetricsIntegration, CountersMatchGroundTruth) {
  expect_counters_match_ground_truth(workload::ClientMode::kExact);
  expect_counters_match_ground_truth(workload::ClientMode::kCohort);

  // OLTP bottleneck: every local service end at the back tier commits and
  // then departs, so the commit total is the tier's completions.
  TestbedConfig config;
  config.metrics = true;
  config.bottleneck = BottleneckKind::kOltp;
  RubbosTestbed bed(config);
  bed.start();
  bed.sim().run_for(sec(std::int64_t{10}));
  bed.finalize_metrics();
  const metrics::Registry& registry = *bed.registry();
  auto txn = [&](const char* event) {
    return registry.counter_value(metrics::names::kOltpTxnTotal, {{"event", event}});
  };
  EXPECT_GT(txn("commits"), 0);
  EXPECT_EQ(txn("commits"), bed.target_tier().completed());
  EXPECT_EQ(txn("aborts"), 0);  // the default WAIT scheme never aborts
  EXPECT_EQ(txn("lock_waits"), bed.oltp_tier()->lock_waits());
  const LatencyHistogram* wait = registry.find_histogram(metrics::names::kOltpLockWaitUs);
  const LatencyHistogram* hold = registry.find_histogram(metrics::names::kOltpLockHoldUs);
  ASSERT_NE(wait, nullptr);
  ASSERT_NE(hold, nullptr);
  // A wait is recorded at its final grant, a hold at its commit.
  EXPECT_LE(wait->count(), txn("lock_waits"));
  EXPECT_EQ(wait->count(), bed.oltp_tier()->lock_wait_time().count());
  EXPECT_LE(hold->count(), txn("commits"));
  EXPECT_GT(hold->count(), 0);
  bed.sim().run_for(msec(100));
  expect_counters_carry_no_series(registry);
}

TEST(MetricsIntegration, RunReportReflectsTheRun) {
  AttackLabConfig config;
  config.duration = sec(std::int64_t{20});
  config.params.burst_length = msec(500);
  config.params.burst_interval = sec(std::int64_t{2});
  config.testbed.metrics = true;
  AttackLabResult result = run_attack_lab(config);
  ASSERT_NE(result.registry, nullptr);

  metrics::RunReportOptions options;
  options.scenario = "lab";
  options.scrape_resolution = msec(50);
  const metrics::RunReport report = metrics::build_run_report(*result.registry, options);
  EXPECT_DOUBLE_EQ(report.sim_seconds, 20.0);
  EXPECT_EQ(report.bursts, result.bursts);
  EXPECT_EQ(report.dropped, result.drops);
  EXPECT_EQ(report.latency_p95, result.client_p95);
  EXPECT_GT(report.duty_cycle, 0.0);
  EXPECT_GT(report.capacity_dips, 0);
  ASSERT_EQ(report.tiers.size(), 3u);
  EXPECT_EQ(report.tiers[0].name, "apache");
  EXPECT_EQ(report.tiers[2].name, "mysql");
  // The attack saturates MySQL transiently: visible in the scraped series.
  EXPECT_GT(report.tiers[2].util_max_native, 0.95);
}

TEST(MetricsIntegration, ReleasedRegistrySurvivesTheTestbed) {
  std::unique_ptr<metrics::Registry> registry;
  std::int64_t completed = 0;
  {
    TestbedConfig config;
    config.metrics = true;
    RubbosTestbed bed(config);
    bed.start();
    bed.sim().run_for(sec(std::int64_t{5}));
    bed.finalize_metrics();
    completed = bed.clients().completed();
    registry = bed.release_metrics();
    EXPECT_EQ(bed.registry(), nullptr);
  }
  ASSERT_NE(registry, nullptr);
  EXPECT_EQ(registry->counter_value(metrics::names::kRequestsTotal, {{"event", "completed"}}),
            completed);
  // Serialization of the released registry still works (sweep merge path).
  std::ostringstream out;
  registry->serialize(out);
  EXPECT_FALSE(out.str().empty());
}

}  // namespace
}  // namespace memca::testbed
