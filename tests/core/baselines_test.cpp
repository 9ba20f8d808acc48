#include "core/baselines.h"

#include <gtest/gtest.h>

#include "monitor/autoscaler.h"
#include "testbed/rubbos_testbed.h"

namespace memca::core {
namespace {

TEST(BruteForceMemoryAttack, SustainedLockCollapsesCapacity) {
  testbed::RubbosTestbed bed;
  bed.start();
  BruteForceMemoryAttack attack(bed.sim(), bed.target_host(), bed.adversary_vm(),
                                cloud::MemoryAttackType::kMemoryLock);
  attack.start();
  EXPECT_TRUE(attack.running());
  EXPECT_LT(bed.coupling().capacity_multiplier(), 0.2);
  attack.stop();
  EXPECT_DOUBLE_EQ(bed.coupling().capacity_multiplier(), 1.0);
}

TEST(BruteForceMemoryAttack, CausesMassiveDamageButIsDetectable) {
  testbed::RubbosTestbed bed;
  bed.start();
  BruteForceMemoryAttack attack(bed.sim(), bed.target_host(), bed.adversary_vm(),
                                cloud::MemoryAttackType::kMemoryLock);
  bed.sim().run_for(sec(std::int64_t{15}));  // warm-up clean
  attack.start();
  bed.sim().run_for(2 * kMinute);
  // Damage: brutal.
  EXPECT_GT(bed.clients().response_times().quantile(0.95), sec(std::int64_t{1}));
  // Stealth: none — 1-minute CloudWatch sees sustained saturation.
  const auto decision =
      monitor::evaluate_autoscaler(bed.target_cpu().series(), monitor::AutoScalerConfig{});
  EXPECT_TRUE(decision.triggered);
}

TEST(BruteForceMemoryAttack, MemcaEvadesWhereBruteForceIsCaught) {
  // The paper's central stealth comparison on identical infrastructure.
  auto run_cpu_series = [](bool brute) {
    testbed::RubbosTestbed bed;
    bed.start();
    std::unique_ptr<BruteForceMemoryAttack> brute_attack;
    std::unique_ptr<MemcaAttack> memca_attack;
    if (brute) {
      brute_attack = std::make_unique<BruteForceMemoryAttack>(
          bed.sim(), bed.target_host(), bed.adversary_vm(),
          cloud::MemoryAttackType::kMemoryLock);
      brute_attack->start();
    } else {
      MemcaConfig config;
      config.enable_controller = false;
      config.params.burst_length = msec(500);
      config.params.burst_interval = sec(std::int64_t{2});
      memca_attack = bed.make_attack(config);
      memca_attack->start();
    }
    bed.sim().run_for(3 * kMinute);
    return monitor::evaluate_autoscaler(bed.target_cpu().series(),
                                        monitor::AutoScalerConfig{})
        .triggered;
  };
  EXPECT_TRUE(run_cpu_series(/*brute=*/true));
  EXPECT_FALSE(run_cpu_series(/*brute=*/false));
}

TEST(FloodingAttack, PicksHeaviestPage) {
  testbed::RubbosTestbed bed;
  bed.start();
  FloodingAttack flood(bed.sim(), bed.router(), 400.0, bed.profile(),
                       bed.fork_rng("flood-test"));
  flood.start();
  bed.sim().run_for(sec(std::int64_t{10}));
  EXPECT_GT(flood.source().generated(), 3000);
}

TEST(FloodingAttack, DegradesVictimLatency) {
  testbed::RubbosTestbed bed;
  bed.start();
  bed.sim().run_for(sec(std::int64_t{15}));
  const SimTime clean_p95 = bed.clients().response_times().quantile(0.95);
  FloodingAttack flood(bed.sim(), bed.router(), 500.0, bed.profile(),
                       bed.fork_rng("flood-test"));
  flood.start();
  bed.sim().run_for(2 * kMinute);
  EXPECT_GT(bed.clients().response_times().quantile(0.95), 2 * clean_p95);
}

TEST(FloodingAttack, TrafficVolumeIsTheGiveaway) {
  // Flooding doubles the front tier's request rate — trivially visible to
  // request-rate anomaly detection, unlike MemCA whose traffic is a probe
  // every 200 ms.
  testbed::RubbosTestbed bed;
  bed.start();
  const double clean_rate = 500.0;  // ~ N/Z
  FloodingAttack flood(bed.sim(), bed.router(), 500.0, bed.profile(),
                       bed.fork_rng("flood-test"));
  flood.start();
  bed.sim().run_for(kMinute);
  const double offered =
      static_cast<double>(bed.system().tier(0).offered()) / to_seconds(bed.sim().now());
  EXPECT_GT(offered, 1.5 * clean_rate);
}

}  // namespace
}  // namespace memca::core
