#include "metrics/run_report.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "metrics/names.h"
#include "metrics/registry.h"

namespace memca::metrics {
namespace {

TEST(RunReportTest, BuildsFromCanonicalNames) {
  Registry registry;
  registry.counter(names::kRequestsTotal, {{"event", "submitted"}}).set_to(100);
  registry.counter(names::kRequestsTotal, {{"event", "completed"}}).set_to(90);
  registry.counter(names::kRequestsTotal, {{"event", "dropped"}}).set_to(10);
  registry.counter(names::kRequestsTotal, {{"event", "retransmitted"}}).set_to(8);
  registry.counter(names::kRequestsTotal, {{"event", "failed"}}).set_to(2);
  LatencyHistogram rt;
  for (int i = 1; i <= 100; ++i) rt.record(msec(i));
  registry.histogram(names::kClientResponseTimeUs).set_to(rt);

  registry.counter(names::kTierRequestsTotal, {{"tier", "mysql"}, {"event", "offered"}})
      .set_to(50);
  registry.counter(names::kTierRequestsTotal, {{"tier", "mysql"}, {"event", "rejected"}})
      .set_to(5);
  Gauge util = registry.gauge(names::kTierUtilization, {{"tier", "mysql"}});
  Gauge queue = registry.gauge(names::kTierQueueLength, {{"tier", "mysql"}});
  Gauge cap = registry.gauge(names::kCapacityMultiplier);
  // 4 s of 50 ms scrapes: saturated in [1 s, 1.5 s), idle elsewhere; one
  // capacity dip over the same window.
  for (SimTime t = msec(50); t <= sec(std::int64_t{4}); t += msec(50)) {
    const bool burst = t > sec(std::int64_t{1}) && t <= msec(1500);
    util.set(burst ? 1.0 : 0.1);
    queue.set(burst ? 30.0 : 2.0);
    cap.set(burst ? 0.2 : 1.0);
    registry.scrape(t);
  }

  registry.counter(names::kEngineEventsTotal).set_to(1234);
  registry.counter(names::kEnginePoolSlots).set_to(64);
  registry.counter(names::kEnginePendingHighWater).set_to(48);
  registry.counter(names::kSimTimeUs).set_to(sec(std::int64_t{4}));
  registry.counter(names::kAttackBurstsTotal).set_to(1);
  registry.counter(names::kAttackOnTimeUs).set_to(msec(500));
  registry.counter(names::kLogMessagesTotal, {{"level", "warn"}}).set_to(3);
  registry.counter(names::kLogMessagesTotal, {{"level", "error"}}).set_to(1);
  registry.counter(names::kFlightrecIncidentsTotal).set_to(2);
  registry.counter(names::kFlightrecAffectedTotal).set_to(17);

  RunReportOptions options;
  options.scenario = "unit";
  options.wall_seconds = 2.0;
  options.scrape_resolution = msec(50);
  const RunReport report = build_run_report(registry, options);

  EXPECT_EQ(report.scenario, "unit");
  EXPECT_DOUBLE_EQ(report.sim_seconds, 4.0);
  EXPECT_EQ(report.events_executed, 1234);
  EXPECT_DOUBLE_EQ(report.events_per_wall_sec, 617.0);
  EXPECT_DOUBLE_EQ(report.sim_speedup, 2.0);
  EXPECT_EQ(report.pool_slots, 64);
  EXPECT_EQ(report.pending_high_water, 48);
  EXPECT_EQ(report.submitted, 100);
  EXPECT_EQ(report.dropped, 10);
  EXPECT_EQ(report.retransmitted, 8);
  EXPECT_EQ(report.failed, 2);
  EXPECT_EQ(report.latency_count, 100);
  EXPECT_EQ(report.latency_p50, registry.find_histogram(names::kClientResponseTimeUs)
                                     ->quantile(0.5));
  EXPECT_EQ(report.bursts, 1);
  EXPECT_DOUBLE_EQ(report.duty_cycle, 0.125);
  EXPECT_EQ(report.capacity_dips, 1);
  EXPECT_DOUBLE_EQ(report.min_capacity_multiplier, 0.2);
  EXPECT_EQ(report.log_warnings, 3);
  EXPECT_EQ(report.log_errors, 1);
  EXPECT_TRUE(report.flightrec);
  EXPECT_EQ(report.incidents, 2);
  EXPECT_EQ(report.incident_affected_requests, 17);

  ASSERT_EQ(report.tiers.size(), 1u);
  const TierReport& mysql = report.tiers[0];
  EXPECT_EQ(mysql.name, "mysql");
  EXPECT_EQ(mysql.offered, 50);
  EXPECT_EQ(mysql.rejected, 5);
  EXPECT_DOUBLE_EQ(mysql.util_max_native, 1.0);
  // The saturated 500 ms dilutes to 0.55 in its 1 s bucket — visible at
  // native resolution, below any threshold at 1 s.
  EXPECT_LT(mysql.util_max_1s, 0.85);
  EXPECT_EQ(mysql.util_1s_windows_above, 0);
  EXPECT_EQ(mysql.util_1s_max_consecutive_above, 0);
  EXPECT_DOUBLE_EQ(mysql.queue_max, 30.0);
}

TEST(RunReportTest, WritersEmitParsableOutput) {
  Registry registry;
  registry.counter(names::kRequestsTotal, {{"event", "submitted"}}).set_to(42);
  registry.counter(names::kSimTimeUs).set_to(sec(std::int64_t{1}));
  RunReportOptions options;
  options.scenario = "writer \"quoted\"";
  const RunReport report = build_run_report(registry, options);

  std::ostringstream json;
  write_json(json, report);
  EXPECT_NE(json.str().find("\"scenario\": \"writer \\\"quoted\\\"\""), std::string::npos);
  EXPECT_NE(json.str().find("\"submitted\": 42"), std::string::npos);

  std::ostringstream md;
  write_markdown(md, report);
  EXPECT_NE(md.str().find("# Run report"), std::string::npos);
  EXPECT_NE(md.str().find("42 submitted"), std::string::npos);
}

TEST(RunReportTest, EmptyRegistryYieldsZeroedReport) {
  Registry registry;
  const RunReport report = build_run_report(registry, {});
  EXPECT_EQ(report.submitted, 0);
  EXPECT_EQ(report.tiers.size(), 0u);
  EXPECT_DOUBLE_EQ(report.duty_cycle, 0.0);
  EXPECT_FALSE(report.flightrec);
  std::ostringstream json;
  write_json(json, report);  // must not crash
  EXPECT_FALSE(json.str().empty());
}

}  // namespace
}  // namespace memca::metrics
