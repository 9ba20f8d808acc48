// Quantized-vs-exact equivalence on the calibrated Fig. 2 scenario.
//
// `TestbedConfig::service_quantum_us` is a deliberate, documented
// event-stream change: demands snap to a microsecond grid and same-quantum
// completions drain as one batch, so the quantized world cannot be compared
// byte-for-byte against the exact one — only its *statistics* can. These
// tests pin the aggregate observables the paper's figures are built from
// (throughput/completions within 3%, damage totals and tail quantiles within
// the cohort-test tolerances), pin the per-request latency decomposition to
// stay exact (attribution slack ≡ 0 — batch drains must not lose or
// double-count spans), and pin the quantized world to the same determinism
// and snapshot/rollback replay contracts the exact world obeys.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "core/memca.h"
#include "support/counting_alloc.h"
#include "support/trace_skip.h"
#include "testbed/rubbos_testbed.h"
#include "trace/attributor.h"

namespace memca::testbed {
namespace {

/// The canonical quantized grid: fine enough that the completion-instant
/// round-up (≤ one quantum per service) stays far below every tier's mean
/// demand, so saturation throughput is not eaten by grid padding.
constexpr std::uint32_t kQuantumUs = 100;

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

RunStats run_fig2(std::uint32_t quantum_us, workload::ClientMode mode, SimTime duration) {
  TestbedConfig config;
  config.service_quantum_us = quantum_us;
  config.client_mode = mode;
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

void expect_close(double quantized, double exact, double rel, double abs_floor,
                  const char* what) {
  const double tolerance = std::max(std::abs(exact) * rel, abs_floor);
  EXPECT_NEAR(quantized, exact, tolerance)
      << what << ": quantized=" << quantized << " exact=" << exact;
}

void expect_equivalent(const RunStats& quantized, const RunStats& exact) {
  // Sanity: the attack must bite in both worlds or the tail comparison is
  // vacuous.
  ASSERT_GT(exact.dropped, 100);
  ASSERT_GT(quantized.dropped, 100);
  ASSERT_GE(exact.p999, sec(std::int64_t{1}));
  ASSERT_GE(quantized.p999, sec(std::int64_t{1}));

  // Volume: round-to-nearest demand quantization is mean-preserving and the
  // ≤100 us completion round-up is noise against a 7 s think time.
  expect_close(static_cast<double>(quantized.completed),
               static_cast<double>(exact.completed), 0.03, 0.0, "completed");
  expect_close(quantized.throughput, exact.throughput, 0.03, 0.0, "throughput");

  // Damage totals and tail shape: same tolerances the cohort equivalence
  // gate uses — burst-by-burst drop counts are noisy, and p99/p99.9 sit on
  // the RTO-quantized VLRT plateau.
  expect_close(static_cast<double>(quantized.dropped),
               static_cast<double>(exact.dropped), 0.15, 50.0, "dropped");
  expect_close(static_cast<double>(quantized.retransmitted),
               static_cast<double>(exact.retransmitted), 0.15, 50.0, "retransmitted");
  expect_close(static_cast<double>(quantized.p50), static_cast<double>(exact.p50),
               0.15, static_cast<double>(msec(5)), "p50");
  expect_close(static_cast<double>(quantized.p99), static_cast<double>(exact.p99),
               0.15, static_cast<double>(msec(100)), "p99");
  expect_close(static_cast<double>(quantized.p999), static_cast<double>(exact.p999),
               0.15, static_cast<double>(msec(250)), "p99.9");
}

TEST(QuantizedEquivalence, CalibratedFig2AtPaperScale) {
  const SimTime duration = 3 * kMinute;
  const RunStats exact = run_fig2(0, workload::ClientMode::kExact, duration);
  const RunStats quantized = run_fig2(kQuantumUs, workload::ClientMode::kExact, duration);
  expect_equivalent(quantized, exact);
}

TEST(QuantizedEquivalence, CohortQuantizedMatchesExact) {
  // The population-scale combination (cohort arrivals + quantized service)
  // stacks both event-stream changes; it must still land inside the same
  // statistical gate against the per-user exact reference.
  const SimTime duration = 3 * kMinute;
  const RunStats exact = run_fig2(0, workload::ClientMode::kExact, duration);
  const RunStats both = run_fig2(kQuantumUs, workload::ClientMode::kCohort, duration);
  expect_equivalent(both, exact);
}

TEST(QuantizedAttribution, DecompositionSlackStaysZero) {
  // The batch drain reorders bookkeeping, not spans: queue wait + service +
  // rpc hold + RTO wait must still cover every client-observed latency
  // exactly. Nonzero slack means the grouped completion path lost or
  // double-counted a span. The second input is a cohort population large
  // enough that the front door rejects most attempts: those rejections are
  // settled without a Request, and their drop, retransmission and abandon
  // marks must still line up with the spans.
  MEMCA_SKIP_IF_TRACE_DISABLED();
  for (const auto& [mode, users] : {std::pair{workload::ClientMode::kExact, 1000},
                                    std::pair{workload::ClientMode::kCohort, 35000}}) {
    SCOPED_TRACE(workload::to_string(mode));
    TestbedConfig config;
    config.service_quantum_us = kQuantumUs;
    config.client_mode = mode;
    config.trace = true;
    config.num_users = users;
    RubbosTestbed bed(config);
    bed.start();
    auto attack = bed.make_attack(fig2_attack());
    attack->start();
    bed.sim().run_for(sec(std::int64_t{30}));
    attack->stop();

    trace::TailAttributor attributor(*bed.trace(), bed.system().depth());
    ASSERT_EQ(static_cast<std::int64_t>(attributor.requests().size()),
              bed.clients().completed());
    for (const trace::RequestBreakdown& r : attributor.requests()) {
      EXPECT_EQ(r.slack, 0) << "request " << r.final_request;
      EXPECT_EQ(r.total, r.queue_wait_total() + r.service_total() + r.rpc_hold_total() +
                             r.rto_wait);
    }
    if (mode == workload::ClientMode::kCohort) {
      EXPECT_GT(bed.clients().dropped_attempts(), 0);
    }
  }
}

// -- determinism and checkpointing -------------------------------------------

struct Fingerprint {
  SimTime now = 0;
  std::uint64_t events = 0;
  std::int64_t completed = 0, dropped = 0, retransmitted = 0, failed = 0;
  SimTime p50 = 0, p99 = 0;

  bool operator==(const Fingerprint& o) const {
    return now == o.now && events == o.events && completed == o.completed &&
           dropped == o.dropped && retransmitted == o.retransmitted &&
           failed == o.failed && p50 == o.p50 && p99 == o.p99;
  }
};

Fingerprint fingerprint(RubbosTestbed& bed) {
  const workload::ClosedLoopClients& clients = bed.clients();
  Fingerprint f;
  f.now = bed.sim().now();
  f.events = bed.sim().events_executed();
  f.completed = clients.completed();
  f.dropped = clients.dropped_attempts();
  f.retransmitted = clients.retransmitted_completions();
  f.failed = clients.failed();
  f.p50 = clients.response_times().quantile(0.50);
  f.p99 = clients.response_times().quantile(0.99);
  return f;
}

TEST(QuantizedDeterminism, SameSeedSameEventStream) {
  auto run_once = [] {
    TestbedConfig config;
    config.service_quantum_us = kQuantumUs;
    config.seed = 13;
    RubbosTestbed bed(config);
    bed.start();
    auto attack = bed.make_attack(fig2_attack());
    attack->start();
    bed.sim().run_for(sec(std::int64_t{20}));
    return fingerprint(bed);
  };
  const Fingerprint first = run_once();
  const Fingerprint second = run_once();
  EXPECT_TRUE(first == second);
}

TEST(QuantizedSnapshot, MidBatchRollbackReplaysByteForByte) {
  // Snapshot a quantized world mid-burst, with completion groups armed on
  // every tier and drops parked as RTO timers: the group table, member-link
  // lane, batched events and reply staging must all round-trip so two
  // replays of the same segment are indistinguishable from the first pass.
  TestbedConfig config;
  config.service_quantum_us = kQuantumUs;
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

  // An off-grid instant mid-burst: armed groups and in-service requests are
  // pending when the checkpoint is taken.
  bed.sim().run_until(msec(4650) + usec(37));
  ASSERT_GT(bed.clients().dropped_attempts(), 0)
      << "drops must be pending as RTO timers when the snapshot is taken";
  bed.snapshot();

  bed.sim().run_for(sec(std::int64_t{4}));
  const Fingerprint first = fingerprint(bed);
  EXPECT_GT(first.retransmitted, 0)
      << "segment must fire RTO timers parked before the snapshot";
  for (int replay = 1; replay <= 2; ++replay) {
    bed.rollback();
    bed.sim().run_for(sec(std::int64_t{4}));
    const Fingerprint again = fingerprint(bed);
    EXPECT_TRUE(first == again) << "replay " << replay;
  }
}

TEST(QuantizedSnapshot, RollbackAllocatesNothing) {
  TestbedConfig config;
  config.service_quantum_us = kQuantumUs;
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
    bed.sim().run_for(sec(std::int64_t{2}));
    tests::ScopedAllocationCounter counter;
    bed.rollback();
    EXPECT_EQ(counter.count(), 0) << "round " << round;
  }
}

}  // namespace
}  // namespace memca::testbed
