// End-to-end properties of the full reproduction: the figure-level claims
// of the paper expressed as assertions over the shared testbed.
#include <gtest/gtest.h>

#include "cloud/llc.h"
#include "core/memca.h"
#include "monitor/autoscaler.h"
#include "monitor/detector.h"
#include "testbed/rubbos_testbed.h"

namespace memca::testbed {
namespace {

struct AttackedRun {
  std::unique_ptr<RubbosTestbed> bed;
  std::unique_ptr<core::MemcaAttack> attack;
};

AttackedRun run_paper_attack(CloudProfile cloud, SimTime duration,
                             cloud::MemoryAttackType type = cloud::MemoryAttackType::kMemoryLock) {
  TestbedConfig config;
  config.cloud = cloud;
  AttackedRun run;
  run.bed = std::make_unique<RubbosTestbed>(config);
  run.bed->start();
  core::MemcaConfig memca;
  memca.enable_controller = false;
  memca.params.burst_length = msec(500);
  memca.params.burst_interval = sec(std::int64_t{2});
  memca.params.type = type;
  run.attack = run.bed->make_attack(memca);
  run.attack->start();
  run.bed->sim().run_for(duration);
  return run;
}

TEST(Integration, Fig2TailAmplificationOrdering) {
  auto run = run_paper_attack(CloudProfile::kAmazonEc2, 3 * kMinute);
  auto& bed = *run.bed;
  for (double q : {0.9, 0.95, 0.98}) {
    const SimTime mysql = bed.system().tier(2).residence_time().quantile(q);
    const SimTime tomcat = bed.system().tier(1).residence_time().quantile(q);
    const SimTime apache = bed.system().tier(0).residence_time().quantile(q);
    const SimTime client = bed.clients().response_times().quantile(q);
    EXPECT_LE(mysql, tomcat) << "q=" << q;
    EXPECT_LE(tomcat, apache) << "q=" << q;
    EXPECT_LE(apache, client) << "q=" << q;
  }
  // Headline damage: client p95 > 1 s.
  EXPECT_GE(bed.clients().response_times().quantile(0.95), sec(std::int64_t{1}));
}

TEST(Integration, Fig2HoldsInBothClouds) {
  for (CloudProfile cloud : {CloudProfile::kAmazonEc2, CloudProfile::kPrivateCloud}) {
    auto run = run_paper_attack(cloud, 3 * kMinute);
    EXPECT_GE(run.bed->clients().response_times().quantile(0.95), sec(std::int64_t{1}))
        << to_string(cloud);
  }
}

TEST(Integration, TailIsNonlinearInPercentile) {
  // "Response time of each tier has a nonlinear tail trend as percentile
  // increases": the p99/p50 ratio is far above the p50/p1-style linear
  // growth — check client RT curvature.
  auto run = run_paper_attack(CloudProfile::kAmazonEc2, 3 * kMinute);
  const auto& rt = run.bed->clients().response_times();
  const double p50 = static_cast<double>(rt.quantile(0.50));
  const double p90 = static_cast<double>(rt.quantile(0.90));
  const double p99 = static_cast<double>(rt.quantile(0.99));
  // Per-percentile slope steepens sharply toward the tail.
  const double slope_mid = (p90 - p50) / 40.0;
  const double slope_tail = (p99 - p90) / 9.0;
  EXPECT_GT(slope_tail, 3.0 * slope_mid);
}

TEST(Integration, Fig9TransientCpuSaturations) {
  auto run = run_paper_attack(CloudProfile::kAmazonEc2, kMinute);
  const auto& cpu = run.bed->target_cpu().series();
  // Transient saturations exist at 50 ms granularity...
  EXPECT_GT(cpu.count_above(0.98), 10u);
  // ...but the average stays moderate.
  EXPECT_LT(cpu.mean(), 0.85);
}

TEST(Integration, Fig9QueuePropagationDuringBurst) {
  auto run = run_paper_attack(CloudProfile::kAmazonEc2, kMinute);
  auto& bed = *run.bed;
  // At some sampled instant every tier hit its thread limit.
  EXPECT_GE(bed.queue_gauge(2).series().max(),
            static_cast<double>(bed.config().mysql.threads));
  EXPECT_GE(bed.queue_gauge(1).series().max(),
            static_cast<double>(bed.config().tomcat.threads));
  EXPECT_GE(bed.queue_gauge(0).series().max(),
            static_cast<double>(bed.config().apache.threads));
}

TEST(Integration, Fig10AutoScalingNeverTriggers) {
  auto run = run_paper_attack(CloudProfile::kAmazonEc2, 3 * kMinute);
  const auto decision = monitor::evaluate_autoscaler(run.bed->target_cpu().series(),
                                                     monitor::AutoScalerConfig{});
  EXPECT_FALSE(decision.triggered);
  // 1-second monitoring also fails to trigger a (realistic) alarm requiring
  // two consecutive breaching periods: the ON-OFF pattern guarantees every
  // hot second is followed by a quiet one (Fig. 10b).
  monitor::AutoScalerConfig one_second;
  one_second.sampling_period = sec(std::int64_t{1});
  one_second.consecutive_periods = 2;
  EXPECT_FALSE(
      monitor::evaluate_autoscaler(run.bed->target_cpu().series(), one_second).triggered);
  // Only 50 ms monitoring reveals the saturations (Fig. 10c).
  EXPECT_TRUE(monitor::evaluate_autoscaler(run.bed->target_cpu().series(), {msec(50), 0.85, 1})
                  .triggered);
}

TEST(Integration, Fig11LlcDetectionAsymmetry) {
  // Bus-saturation bursts leave a periodic LLC-miss pattern; memory-lock
  // bursts do not — run the LLC model against each attack's real schedule.
  for (auto type :
       {cloud::MemoryAttackType::kBusSaturate, cloud::MemoryAttackType::kMemoryLock}) {
    auto run = run_paper_attack(CloudProfile::kPrivateCloud, 2 * kMinute, type);
    const auto& windows = run.attack->program().windows();
    ASSERT_GT(windows.size(), 10u);
    auto overlap = [&](SimTime start, SimTime end) {
      SimTime total = 0;
      for (const auto& w : windows) {
        const SimTime lo = std::max(start, w.start);
        const SimTime hi = std::min(end, w.end);
        if (hi > lo) total += hi - lo;
      }
      return static_cast<double>(total) / static_cast<double>(end - start);
    };
    auto none = [](SimTime, SimTime) { return 0.0; };
    cloud::LlcModel llc;
    Rng rng = run.bed->fork_rng("llc");
    const bool is_bus = type == cloud::MemoryAttackType::kBusSaturate;
    const TimeSeries misses =
        llc.sample_series(2 * kMinute, msec(100),
                          is_bus ? std::function<double(SimTime, SimTime)>(overlap) : none,
                          is_bus ? none : std::function<double(SimTime, SimTime)>(overlap),
                          rng);
    const auto detection = monitor::detect_periodicity(misses, msec(100), 5, 60);
    if (is_bus) {
      EXPECT_TRUE(detection.periodic);
      EXPECT_EQ(detection.best_period, sec(std::int64_t{2}));
    } else {
      EXPECT_FALSE(detection.periodic);
    }
  }
}

TEST(Integration, ThroughputSurvivesTheAttack) {
  // MemCA is not a throughput attack: goodput stays near the clean rate
  // (that is exactly why volume-based DoS defenses miss it).
  auto run = run_paper_attack(CloudProfile::kAmazonEc2, 3 * kMinute);
  EXPECT_GT(run.bed->clients().throughput(), 450.0);
}

}  // namespace
}  // namespace memca::testbed
