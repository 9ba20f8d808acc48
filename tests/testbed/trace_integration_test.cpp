// End-to-end coverage of the memca_trace subsystem on the calibrated
// testbed: span-stream completeness, exact latency decomposition, the
// paper's retransmission-dominated-tail claim, and bit-identical tail
// attribution across sweep thread counts.
#include <gtest/gtest.h>

#include <tuple>

#include "support/trace_skip.h"
#include "testbed/attack_lab.h"
#include "trace/attributor.h"

namespace memca::testbed {
namespace {

core::MemcaConfig calibrated_attack() {
  core::MemcaConfig memca;
  memca.enable_controller = false;
  memca.params.burst_length = msec(500);
  memca.params.burst_interval = sec(std::int64_t{2});
  memca.params.type = cloud::MemoryAttackType::kMemoryLock;
  return memca;
}

TEST(TraceIntegration, RecordsTheFullCausalChain) {
  MEMCA_SKIP_IF_TRACE_DISABLED();
  TestbedConfig config;
  config.trace = true;
  RubbosTestbed bed(config);
  bed.start();
  auto attack = bed.make_attack(calibrated_attack());
  attack->start();
  bed.sim().run_for(sec(std::int64_t{40}));
  attack->stop();

  ASSERT_NE(bed.trace(), nullptr);
  const trace::TraceRecorder& recorder = *bed.trace();
  ASSERT_GT(recorder.size(), 0u);

  std::int64_t bursts_on = 0, bursts_off = 0, capacity_marks = 0, drops = 0,
               retransmits = 0, completes = 0;
  SimTime last_time = 0;
  recorder.for_each([&](const trace::TraceEvent& ev) {
    EXPECT_GE(ev.time, last_time);  // causal (time-nondecreasing) stream
    last_time = ev.time;
    switch (ev.kind) {
      case trace::EventKind::kBurstOn: ++bursts_on; break;
      case trace::EventKind::kBurstOff: ++bursts_off; break;
      case trace::EventKind::kCapacity: ++capacity_marks; break;
      case trace::EventKind::kDrop: ++drops; break;
      case trace::EventKind::kRetransmit: ++retransmits; break;
      case trace::EventKind::kComplete: ++completes; break;
      default: break;
    }
  });
  // Every link of the paper's causal chain left events: burst -> capacity
  // dip -> drop -> retransmission -> completion.
  EXPECT_EQ(bursts_on, attack->scheduler().bursts_fired());
  EXPECT_GT(bursts_off, 0);
  EXPECT_GE(capacity_marks, 2 * bursts_off);  // a dip and a recovery per burst
  EXPECT_EQ(drops, bed.system().dropped());
  EXPECT_GT(retransmits, 0);
  EXPECT_EQ(completes, bed.clients().completed());
}

TEST(TraceIntegration, DecompositionIsExactForEveryRequest) {
  MEMCA_SKIP_IF_TRACE_DISABLED();
  TestbedConfig config;
  config.trace = true;
  config.num_users = 1000;  // lighter load, same mechanics
  RubbosTestbed bed(config);
  bed.start();
  auto attack = bed.make_attack(calibrated_attack());
  attack->start();
  bed.sim().run_for(sec(std::int64_t{30}));
  attack->stop();

  trace::TailAttributor attributor(*bed.trace(), bed.system().depth());
  ASSERT_EQ(static_cast<std::int64_t>(attributor.requests().size()),
            bed.clients().completed());
  for (const trace::RequestBreakdown& r : attributor.requests()) {
    // Replies propagate instantaneously in the n-tier model, so queue wait +
    // service + rpc hold + RTO wait must cover the client-observed latency
    // exactly — any nonzero slack means a span was lost or double-counted.
    EXPECT_EQ(r.slack, 0) << "request " << r.final_request;
    EXPECT_EQ(r.total, r.queue_wait_total() + r.service_total() + r.rpc_hold_total() +
                           r.rto_wait);
    EXPECT_LE(r.degraded_service, r.service_total());
    EXPECT_GE(r.attempts, 1);
  }
}

TEST(TraceIntegration, AttackTailIsRetransmissionDominated) {
  MEMCA_SKIP_IF_TRACE_DISABLED();
  AttackLabConfig config;
  config.testbed.trace = true;
  config.duration = 90 * kSecond;
  config.params.burst_length = msec(500);
  config.params.burst_interval = sec(std::int64_t{2});
  config.params.type = cloud::MemoryAttackType::kMemoryLock;
  const AttackLabResult result = run_attack_lab(config);

  // Paper Section III: the >1 s client tail under the calibrated attack is
  // manufactured by TCP retransmissions, not slow service.
  ASSERT_GT(result.tail.tail_count, 0);
  EXPECT_GT(result.tail.retrans_dominated_share(), 0.5);
  EXPECT_GT(result.tail.rto_wait_us,
            result.tail.queue_wait_us + result.tail.service_us + result.tail.rpc_hold_us);
}

TEST(TraceIntegration, UntracedRunsCarryNoRecorderAndEmptySummary) {
  AttackLabConfig config;
  config.duration = sec(std::int64_t{5});
  const AttackLabResult result = run_attack_lab(config);
  EXPECT_EQ(result.tail.tail_count, 0);
  EXPECT_EQ(result.tail.completed, 0);

  RubbosTestbed bed(TestbedConfig{});
  EXPECT_EQ(bed.trace(), nullptr);
}

auto summary_tuple(const trace::TailSummary& s) {
  return std::tuple{s.threshold, s.completed,  s.abandoned,  s.tail_count,
                    s.tail_retrans_dominated,  s.queue_wait_us, s.service_us,
                    s.degraded_us, s.rpc_hold_us, s.rto_wait_us, s.slack_us};
}

TEST(TraceIntegration, TailAttributionIsBitIdenticalAcrossSweepThreads) {
  auto make_cells = [] {
    std::vector<AttackLabConfig> cells;
    for (std::uint64_t seed : {42u, 1337u, 2026u}) {
      AttackLabConfig config;
      config.testbed.trace = true;
      config.testbed.seed = seed;
      config.testbed.num_users = 1200;
      config.duration = sec(std::int64_t{20});
      config.params.burst_length = msec(500);
      config.params.burst_interval = sec(std::int64_t{2});
      cells.push_back(config);
    }
    return cells;
  };
  const auto sequential = run_attack_lab_sweep(make_cells(), 1);
  const auto parallel = run_attack_lab_sweep(make_cells(), 4);
  ASSERT_EQ(sequential.size(), parallel.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(summary_tuple(sequential[i].tail), summary_tuple(parallel[i].tail))
        << "cell " << i;
    EXPECT_EQ(sequential[i].drops, parallel[i].drops);
  }
}

}  // namespace
}  // namespace memca::testbed
