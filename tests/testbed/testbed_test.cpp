#include "testbed/rubbos_testbed.h"

#include <gtest/gtest.h>

namespace memca::testbed {
namespace {

TEST(RubbosTestbed, ConstructionWiresEverything) {
  RubbosTestbed bed;
  EXPECT_EQ(bed.system().num_tiers(), 3u);
  EXPECT_TRUE(bed.system().satisfies_condition1());
  EXPECT_EQ(bed.target_host().vm_count(), 2u);  // mysql + adversary
  EXPECT_NE(bed.target_vm(), bed.adversary_vm());
  EXPECT_DOUBLE_EQ(bed.coupling().capacity_multiplier(), 1.0);
}

TEST(RubbosTestbed, BaselineCalibration) {
  RubbosTestbed bed;
  bed.start();
  bed.sim().run_for(kMinute);
  // ~500 req/s with 3500 users at 7 s think time.
  EXPECT_NEAR(bed.clients().throughput(), 500.0, 40.0);
  // MySQL is the bottleneck at moderate utilization (the paper's setup).
  EXPECT_GT(bed.target_cpu().series().mean(), 0.35);
  EXPECT_LT(bed.target_cpu().series().mean(), 0.70);
  // No drops in the unattacked system.
  EXPECT_EQ(bed.clients().dropped_attempts(), 0);
  // Every request responded within ~100 ms (paper Section II-C).
  EXPECT_LT(bed.clients().response_times().quantile(0.99), msec(100));
}

TEST(RubbosTestbed, AttackCouplingThrottlesMysqlTier) {
  RubbosTestbed bed;
  bed.target_host().set_memory_activity(bed.adversary_vm(), 0.0, 0.9);
  // EC2 hosts have twice the private cloud's bandwidth: D ~ 0.3 here.
  EXPECT_LT(bed.system().back_tier().speed_multiplier(), 0.35);
  bed.target_host().clear_memory_activity(bed.adversary_vm());
  EXPECT_DOUBLE_EQ(bed.system().back_tier().speed_multiplier(), 1.0);
}

TEST(RubbosTestbed, PrivateCloudDegradesDeeperThanEc2) {
  // The private host has half the memory bandwidth of the EC2 node, so the
  // same lock attack yields a smaller D (deeper degradation).
  TestbedConfig priv;
  priv.cloud = CloudProfile::kPrivateCloud;
  RubbosTestbed private_bed(priv);
  TestbedConfig ec2;
  ec2.cloud = CloudProfile::kAmazonEc2;
  RubbosTestbed ec2_bed(ec2);

  private_bed.target_host().set_memory_activity(private_bed.adversary_vm(), 0.0, 0.9);
  ec2_bed.target_host().set_memory_activity(ec2_bed.adversary_vm(), 0.0, 0.9);
  EXPECT_LT(private_bed.coupling().capacity_multiplier(),
            ec2_bed.coupling().capacity_multiplier());
}

TEST(RubbosTestbed, ModelParamsMatchCalibration) {
  RubbosTestbed bed;
  const auto params = bed.model_params();
  ASSERT_EQ(params.size(), 3u);
  EXPECT_DOUBLE_EQ(params[0].queue_size, 100.0);
  EXPECT_DOUBLE_EQ(params[1].queue_size, 60.0);
  EXPECT_DOUBLE_EQ(params[2].queue_size, 30.0);
  EXPECT_NEAR(params[2].arrival_rate, 500.0, 1.0);
  // MySQL capacity ~ 2 workers / ~2 ms demand.
  EXPECT_GT(params[2].capacity_off, 700.0);
  EXPECT_LT(params[2].capacity_off, 1300.0);
  // Upstream tiers have spare capacity.
  EXPECT_GT(params[1].capacity_off, params[2].capacity_off);
  EXPECT_GT(params[0].capacity_off, params[1].capacity_off);
}

TEST(RubbosTestbed, QueueGaugesSampleAllTiers) {
  RubbosTestbed bed;
  bed.start();
  bed.sim().run_for(sec(std::int64_t{5}));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GT(bed.queue_gauge(i).series().size(), 90u);
  }
}

TEST(RubbosTestbed, SeedChangesRun) {
  TestbedConfig a;
  a.seed = 1;
  TestbedConfig b;
  b.seed = 2;
  RubbosTestbed bed_a(a);
  RubbosTestbed bed_b(b);
  bed_a.start();
  bed_b.start();
  bed_a.sim().run_for(sec(std::int64_t{30}));
  bed_b.sim().run_for(sec(std::int64_t{30}));
  EXPECT_NE(bed_a.clients().response_times().quantile(0.9),
            bed_b.clients().response_times().quantile(0.9));
}

TEST(RubbosTestbed, ForkRngIsStable) {
  RubbosTestbed bed;
  Rng a = bed.fork_rng("x");
  Rng b = bed.fork_rng("x");
  EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(RubbosTestbedDeathTest, RejectsAPerTierServiceQuantum) {
  // The quantum is chain-wide and set through the testbed: a value on one
  // tier's config would otherwise be silently replaced.
  for (int i = 0; i < 3; ++i) {
    TestbedConfig config;
    queueing::TierConfig* tiers[] = {&config.apache, &config.tomcat, &config.mysql};
    tiers[i]->service_quantum_us = 100;
    EXPECT_DEATH(RubbosTestbed{config}, "TestbedConfig::service_quantum_us");
  }
  // The testbed's quantum reaches every tier of the system, while config()
  // keeps the caller's tier configs as given.
  TestbedConfig config;
  config.service_quantum_us = 100;
  RubbosTestbed bed(config);
  for (std::size_t i = 0; i < bed.system().num_tiers(); ++i) {
    EXPECT_EQ(bed.system().tier(i).config().service_quantum_us,
              bed.config().service_quantum_us);
  }
  EXPECT_EQ(bed.config().apache.service_quantum_us, 0u);
  EXPECT_EQ(bed.config().tomcat.service_quantum_us, 0u);
  EXPECT_EQ(bed.config().mysql.service_quantum_us, 0u);
}

}  // namespace
}  // namespace memca::testbed
