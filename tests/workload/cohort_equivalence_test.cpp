// Cohort-vs-exact equivalence on the calibrated Fig. 2 scenario. The two
// client models share everything downstream (tiers, coupling, attack
// schedule) but draw arrivals differently — per-user exponential timers vs
// per-cohort binomial counts — so their event streams differ and only the
// *statistics* can be compared. These tests pin the aggregate observables
// the paper's figures are built from (tail quantiles, completion/drop/
// retransmission totals) to agree within tight tolerances, at the paper's
// 3.5k population and at a 10x-scaled one, and pin the cohort world's
// snapshot/rollback to the same byte-exact replay contract the exact world
// obeys.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/memca.h"
#include "support/counting_alloc.h"
#include "testbed/rubbos_testbed.h"

namespace memca::testbed {
namespace {

struct RunStats {
  std::int64_t completed = 0, dropped = 0, retransmitted = 0, failed = 0;
  SimTime p50 = 0, p99 = 0, p999 = 0;
  double throughput = 0.0;
};

core::MemcaConfig fig2_attack() {
  core::MemcaConfig config;
  config.enable_controller = false;
  config.params.burst_length = msec(500);
  config.params.burst_interval = sec(std::int64_t{2});
  config.params.type = cloud::MemoryAttackType::kMemoryLock;
  return config;
}

/// Runs the Fig. 2 scenario (fixed L=500ms / I=2s memory-lock bursts, no
/// controller) under the given client model and population scale. Tier
/// limits scale with the population so Condition 1 holds at every scale.
RunStats run_fig2(workload::ClientMode mode, int scale, SimTime duration) {
  TestbedConfig config;
  config.client_mode = mode;
  config.num_users *= scale;
  config.apache.threads *= scale;
  config.apache.workers *= scale;
  config.tomcat.threads *= scale;
  config.tomcat.workers *= scale;
  config.mysql.threads *= scale;
  config.mysql.workers *= scale;
  config.target_bandwidth_demand_gbps *= scale;
  RubbosTestbed bed(config);
  bed.start();
  auto attack = bed.make_attack(fig2_attack());
  attack->start();
  bed.sim().run_for(duration);

  RunStats stats;
  const workload::ClosedLoopClients& clients = bed.clients();
  stats.completed = clients.completed();
  stats.dropped = clients.dropped_attempts();
  stats.retransmitted = clients.retransmitted_completions();
  stats.failed = clients.failed();
  stats.p50 = clients.response_times().quantile(0.50);
  stats.p99 = clients.response_times().quantile(0.99);
  stats.p999 = clients.response_times().quantile(0.999);
  stats.throughput = clients.throughput();
  return stats;
}

void expect_close(double cohort, double exact, double rel, double abs_floor,
                  const char* what) {
  const double tolerance = std::max(std::abs(exact) * rel, abs_floor);
  EXPECT_NEAR(cohort, exact, tolerance)
      << what << ": cohort=" << cohort << " exact=" << exact;
}

TEST(CohortEquivalence, CalibratedFig2AtPaperScale) {
  const SimTime duration = 3 * kMinute;
  const RunStats exact = run_fig2(workload::ClientMode::kExact, 1, duration);
  const RunStats cohort = run_fig2(workload::ClientMode::kCohort, 1, duration);

  // Sanity: the attack must actually bite in both worlds, or the quantile
  // comparison below is vacuous.
  ASSERT_GT(exact.dropped, 100);
  ASSERT_GT(cohort.dropped, 100);
  ASSERT_GE(exact.p999, sec(std::int64_t{1}));
  ASSERT_GE(cohort.p999, sec(std::int64_t{1}));

  // Volume: the cohort tick quantization shifts effective think time by
  // ~tick/2 (0.4% of 7 s), well inside the 3% band.
  expect_close(static_cast<double>(cohort.completed),
               static_cast<double>(exact.completed), 0.03, 0.0, "completed");
  expect_close(cohort.throughput, exact.throughput, 0.03, 0.0, "throughput");

  // Damage totals: burst-by-burst drop counts are noisy (each burst drops
  // what happens to arrive inside 500 ms), so compare run totals at 15%.
  expect_close(static_cast<double>(cohort.dropped),
               static_cast<double>(exact.dropped), 0.15, 50.0, "dropped");
  expect_close(static_cast<double>(cohort.retransmitted),
               static_cast<double>(exact.retransmitted), 0.15, 50.0,
               "retransmitted");
  expect_close(static_cast<double>(cohort.failed),
               static_cast<double>(exact.failed), 0.25, 20.0, "failed");

  // Tail shape: p50 is sub-attack baseline latency; p99/p99.9 sit on the
  // RTO-quantized VLRT plateau — the figure the paper is about.
  expect_close(static_cast<double>(cohort.p50), static_cast<double>(exact.p50),
               0.15, static_cast<double>(msec(5)), "p50");
  expect_close(static_cast<double>(cohort.p99), static_cast<double>(exact.p99),
               0.15, static_cast<double>(msec(100)), "p99");
  expect_close(static_cast<double>(cohort.p999),
               static_cast<double>(exact.p999), 0.15,
               static_cast<double>(msec(250)), "p99.9");
}

TEST(CohortEquivalence, ScaledTenfoldPopulation) {
  // 35k users, tiers scaled 10x: a shorter window keeps the exact run (the
  // expensive half of this comparison) affordable in CI.
  const SimTime duration = sec(std::int64_t{60});
  const RunStats exact = run_fig2(workload::ClientMode::kExact, 10, duration);
  const RunStats cohort = run_fig2(workload::ClientMode::kCohort, 10, duration);

  ASSERT_GT(exact.dropped, 100);
  ASSERT_GT(cohort.dropped, 100);

  expect_close(static_cast<double>(cohort.completed),
               static_cast<double>(exact.completed), 0.03, 0.0, "completed");
  expect_close(static_cast<double>(cohort.dropped),
               static_cast<double>(exact.dropped), 0.20, 200.0, "dropped");
  expect_close(static_cast<double>(cohort.p50), static_cast<double>(exact.p50),
               0.15, static_cast<double>(msec(5)), "p50");
  expect_close(static_cast<double>(cohort.p99), static_cast<double>(exact.p99),
               0.20, static_cast<double>(msec(250)), "p99");
}

// -- cohort world checkpointing ---------------------------------------------

struct Fingerprint {
  SimTime now = 0;
  std::uint64_t events = 0;
  std::int64_t completed = 0, dropped = 0, retransmitted = 0, failed = 0;
  std::int64_t idle = 0, live_slots = 0, rto_backlog = 0;
  SimTime p50 = 0, p99 = 0;

  bool operator==(const Fingerprint& o) const {
    return now == o.now && events == o.events && completed == o.completed &&
           dropped == o.dropped && retransmitted == o.retransmitted &&
           failed == o.failed && idle == o.idle && live_slots == o.live_slots &&
           rto_backlog == o.rto_backlog && p50 == o.p50 && p99 == o.p99;
  }
};

Fingerprint run_segment(RubbosTestbed& bed, SimTime span) {
  bed.sim().run_for(span);
  const workload::ClosedLoopClients& clients = bed.clients();
  Fingerprint f;
  f.now = bed.sim().now();
  f.events = bed.sim().events_executed();
  f.completed = clients.completed();
  f.dropped = clients.dropped_attempts();
  f.retransmitted = clients.retransmitted_completions();
  f.failed = clients.failed();
  f.idle = clients.idle_users();
  f.live_slots = clients.user_slots().live();
  f.rto_backlog = clients.rto_backlog();
  f.p50 = clients.response_times().quantile(0.50);
  f.p99 = clients.response_times().quantile(0.99);
  return f;
}

TEST(CohortSnapshot, MidBurstRollbackReplaysByteForByte) {
  // Snapshot a cohort world mid-burst with RTO groups parked in the wheel:
  // the tick handle, idle-count lanes, slot allocator, ledger chains and
  // the pending sub-slot send events must all round-trip so the replayed
  // segment is indistinguishable from the first pass.
  TestbedConfig config;
  config.client_mode = workload::ClientMode::kCohort;
  config.seed = 7;
  RubbosTestbed bed(config);
  bed.start();

  cloud::Host& host = bed.target_host();
  const cloud::VmId vm = bed.adversary_vm();
  for (int k = 0; k < 12; ++k) {
    const SimTime on = msec(500) + k * sec(std::int64_t{1});
    bed.sim().schedule_at(on, [&host, vm] { host.set_memory_activity(vm, 0.0, 0.95); });
    bed.sim().schedule_at(on + msec(300), [&host, vm] { host.clear_memory_activity(vm); });
  }

  bed.sim().run_until(msec(4650));
  ASSERT_GT(bed.clients().dropped_attempts(), 0)
      << "drops must be pending as RTO groups when the snapshot is taken";
  bed.snapshot();

  const Fingerprint first = run_segment(bed, sec(std::int64_t{4}));
  EXPECT_GT(first.retransmitted, 0)
      << "segment must fire RTO groups parked before the snapshot";
  for (int replay = 1; replay <= 2; ++replay) {
    bed.rollback();
    const Fingerprint again = run_segment(bed, sec(std::int64_t{4}));
    EXPECT_TRUE(first == again) << "replay " << replay;
  }
}

TEST(CohortSnapshot, RollbackAllocatesNothing) {
  TestbedConfig config;
  config.client_mode = workload::ClientMode::kCohort;
  config.seed = 11;
  RubbosTestbed bed(config);
  bed.start();

  cloud::Host& host = bed.target_host();
  const cloud::VmId vm = bed.adversary_vm();
  for (int k = 0; k < 8; ++k) {
    const SimTime on = msec(500) + k * sec(std::int64_t{1});
    bed.sim().schedule_at(on, [&host, vm] { host.set_memory_activity(vm, 0.0, 0.9); });
    bed.sim().schedule_at(on + msec(300), [&host, vm] { host.clear_memory_activity(vm); });
  }
  bed.sim().run_until(msec(3650));
  bed.snapshot();

  for (int round = 0; round < 2; ++round) {
    // Diverge so every cohort lane (idle counts, slots, ledger, tick) has
    // moved before the rewind.
    bed.sim().run_for(sec(std::int64_t{2}));
    tests::ScopedAllocationCounter counter;
    bed.rollback();
    EXPECT_EQ(counter.count(), 0) << "round " << round;
  }
}

}  // namespace
}  // namespace memca::testbed
