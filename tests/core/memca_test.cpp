#include "core/memca.h"

#include <gtest/gtest.h>

#include "testbed/rubbos_testbed.h"

namespace memca::core {
namespace {

TEST(MemcaAttack, OpenLoopConfigurationRunsFixedParams) {
  testbed::RubbosTestbed bed;
  bed.start();
  MemcaConfig config;
  config.enable_controller = false;
  config.params.burst_length = msec(500);
  config.params.burst_interval = sec(std::int64_t{2});
  auto attack = bed.make_attack(config);
  EXPECT_EQ(attack->controller(), nullptr);
  attack->start();
  bed.sim().run_for(kMinute);
  EXPECT_EQ(attack->scheduler().bursts_fired(), 31);
  EXPECT_EQ(attack->scheduler().params().burst_length, msec(500));
  EXPECT_GT(attack->prober().probes_sent(), 0);
}

TEST(MemcaAttack, StartStopLifecycle) {
  testbed::RubbosTestbed bed;
  bed.start();
  MemcaConfig config;
  config.enable_controller = false;
  auto attack = bed.make_attack(config);
  EXPECT_FALSE(attack->running());
  attack->start();
  attack->start();  // idempotent
  EXPECT_TRUE(attack->running());
  bed.sim().run_for(sec(std::int64_t{5}));
  attack->stop();
  attack->stop();  // idempotent
  EXPECT_FALSE(attack->running());
  const auto bursts = attack->scheduler().bursts_fired();
  bed.sim().run_for(sec(std::int64_t{10}));
  EXPECT_EQ(attack->scheduler().bursts_fired(), bursts);
  EXPECT_FALSE(bed.target_host().any_lock_active());
}

TEST(MemcaAttack, CausesTailDamageAgainstTestbed) {
  // The headline integration property: with the paper's parameters the
  // client p95 exceeds 1 s while baseline p95 is tens of milliseconds.
  testbed::RubbosTestbed bed;
  bed.start();
  MemcaConfig config;
  config.enable_controller = false;
  config.params.burst_length = msec(500);
  config.params.burst_interval = sec(std::int64_t{2});
  config.params.type = cloud::MemoryAttackType::kMemoryLock;
  auto attack = bed.make_attack(config);
  attack->start();
  bed.sim().run_for(3 * kMinute);
  EXPECT_GE(bed.clients().response_times().quantile(0.95), sec(std::int64_t{1}));
}

TEST(MemcaAttack, BaselineWithoutAttackIsFast) {
  testbed::RubbosTestbed bed;
  bed.start();
  bed.sim().run_for(3 * kMinute);
  EXPECT_LT(bed.clients().response_times().quantile(0.95), msec(100));
  EXPECT_EQ(bed.clients().dropped_attempts(), 0);
}

TEST(MemcaAttack, ProberObservesTheDamage) {
  testbed::RubbosTestbed bed;
  bed.start();
  MemcaConfig config;
  config.enable_controller = false;
  config.params.burst_length = msec(500);
  config.params.burst_interval = sec(std::int64_t{2});
  auto attack = bed.make_attack(config);
  attack->start();
  bed.sim().run_for(2 * kMinute);
  // The attacker's own probe stream sees the long tail it creates.
  EXPECT_GT(attack->prober().quantile_in_window(0.95, kMinute), msec(200));
}

TEST(MemcaAttack, AttackIsDeterministicGivenSeed) {
  auto run_once = [] {
    testbed::RubbosTestbed bed;
    bed.start();
    MemcaConfig config;
    config.enable_controller = false;
    auto attack = bed.make_attack(config);
    attack->start();
    bed.sim().run_for(kMinute);
    return bed.clients().response_times().quantile(0.95);
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace memca::core
