// The checkpoint invariant: a cell measured after RubbosTestbed::rollback()
// must be indistinguishable — byte for byte, in every observable — from the
// same cell measured against a freshly constructed, freshly warmed world.
// These tests pin that from three angles: warm sweep cells vs cold
// run_attack_lab calls (tables and registry bytes, at several thread
// counts), a raw mid-burst/mid-RTO rollback replayed repeatedly from one
// snapshot, and an armed allocation counter proving rollback() itself
// allocates nothing once the snapshot exists.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "queueing/ntier.h"
#include "support/counting_alloc.h"
#include "testbed/attack_lab.h"
#include "testbed/rubbos_testbed.h"

namespace memca::testbed {
namespace {

std::string registry_bytes(const metrics::Registry* registry) {
  std::ostringstream out;
  if (registry != nullptr) registry->serialize(out);
  return out.str();
}

/// Three cells share one prefix (same testbed + warmup, different attack
/// params) so a sweep worker rewinds a warm world between them; the fourth
/// differs in seed, forcing the worker to rebuild cold mid-chunk.
std::vector<AttackLabConfig> warm_grid() {
  std::vector<AttackLabConfig> cells;
  for (SimTime length : {msec(200), msec(400), msec(600)}) {
    AttackLabConfig config;
    config.params.burst_length = length;
    config.params.burst_interval = sec(std::int64_t{2});
    config.warmup = sec(std::int64_t{8});
    config.duration = sec(std::int64_t{10});
    config.testbed.seed = 42;
    config.testbed.metrics = true;
    cells.push_back(config);
  }
  AttackLabConfig odd = cells.back();
  odd.testbed.seed = 1234;
  cells.push_back(odd);
  return cells;
}

void expect_identical(const AttackLabResult& a, const AttackLabResult& b,
                      std::size_t cell) {
  EXPECT_EQ(a.d_on, b.d_on) << "cell " << cell;
  EXPECT_EQ(a.client_p50, b.client_p50) << "cell " << cell;
  EXPECT_EQ(a.client_p95, b.client_p95) << "cell " << cell;
  EXPECT_EQ(a.client_p98, b.client_p98) << "cell " << cell;
  EXPECT_EQ(a.client_p99, b.client_p99) << "cell " << cell;
  EXPECT_EQ(a.tier_p95, b.tier_p95) << "cell " << cell;
  EXPECT_EQ(a.throughput, b.throughput) << "cell " << cell;
  EXPECT_EQ(a.drops, b.drops) << "cell " << cell;
  EXPECT_EQ(a.drop_fraction, b.drop_fraction) << "cell " << cell;
  EXPECT_EQ(a.cpu_mean, b.cpu_mean) << "cell " << cell;
  EXPECT_EQ(a.cpu_max_50ms, b.cpu_max_50ms) << "cell " << cell;
  EXPECT_EQ(a.cpu_max_1s, b.cpu_max_1s) << "cell " << cell;
  EXPECT_EQ(a.cpu_max_1min, b.cpu_max_1min) << "cell " << cell;
  EXPECT_EQ(a.autoscaler_triggered, b.autoscaler_triggered) << "cell " << cell;
  EXPECT_EQ(a.mean_saturation_s, b.mean_saturation_s) << "cell " << cell;
  EXPECT_EQ(a.bursts, b.bursts) << "cell " << cell;
  EXPECT_EQ(registry_bytes(a.registry.get()), registry_bytes(b.registry.get()))
      << "cell " << cell;
}

TEST(SnapshotSweep, WarmCellsMatchColdRunsByteForByte) {
  const std::vector<AttackLabConfig> grid = warm_grid();

  // Cold baseline: fresh testbed per cell, warm-up re-simulated every time.
  std::vector<AttackLabResult> baseline;
  for (const AttackLabConfig& config : grid) baseline.push_back(run_attack_lab(config));

  for (int threads : {1, 2, 4}) {
    std::vector<AttackLabResult> swept = run_attack_lab_sweep(grid, threads);
    ASSERT_EQ(swept.size(), baseline.size()) << "threads " << threads;
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      expect_identical(baseline[i], swept[i], i);
    }
  }
}

TEST(SnapshotSweep, MergedRegistryBytesMatchColdAcrossThreadCounts) {
  const std::vector<AttackLabConfig> grid = warm_grid();

  std::vector<AttackLabResult> baseline;
  for (const AttackLabConfig& config : grid) baseline.push_back(run_attack_lab(config));
  const std::string cold_bytes = registry_bytes(merge_sweep_registries(baseline).get());
  ASSERT_FALSE(cold_bytes.empty());

  for (int threads : {1, 2, 4}) {
    std::vector<AttackLabResult> swept = run_attack_lab_sweep(grid, threads);
    EXPECT_EQ(cold_bytes, registry_bytes(merge_sweep_registries(swept).get()))
        << "threads " << threads;
  }
}

/// Everything a segment of simulation can disturb, collected after running
/// the world forward a fixed span. Exact equality across replays is the
/// rollback contract — no tolerance anywhere.
struct Fingerprint {
  SimTime now = 0;
  std::uint64_t events = 0;
  std::int64_t completed = 0, drops = 0, failed = 0, retransmitted = 0;
  /// Cohort population split (both zero in exact mode) and RTO backlog.
  std::int64_t idle_users = 0, live_slots = 0;
  int rto_backlog = 0;
  /// The current tick's unsent wakers per (sub-slot, page); empty in exact
  /// mode.
  std::vector<std::int64_t> sub_slot_counts;
  SimTime p50 = 0, p99 = 0;
  std::vector<std::int64_t> tier_counters;
  std::vector<int> occupancy;
  double bandwidth = 0.0;
  /// The telemetry clock's series: target CPU, then each tier's queue
  /// length (sizes, then every sample's time and value).
  std::vector<std::size_t> series_sizes;
  std::vector<SimTime> series_times;
  std::vector<double> series_values;
};

Fingerprint run_segment(RubbosTestbed& bed, SimTime span) {
  bed.sim().run_for(span);
  Fingerprint f;
  f.now = bed.sim().now();
  f.events = bed.sim().events_executed();
  f.completed = bed.clients().completed();
  f.drops = bed.clients().dropped_attempts();
  f.failed = bed.clients().failed();
  f.retransmitted = bed.clients().retransmitted_completions();
  f.idle_users = bed.clients().idle_users();
  f.live_slots = bed.clients().user_slots().live();
  f.rto_backlog = bed.clients().rto_backlog();
  const std::span<const std::int64_t> counts = bed.clients().sub_slot_counts();
  f.sub_slot_counts.assign(counts.begin(), counts.end());
  f.p50 = bed.clients().response_times().quantile(0.50);
  f.p99 = bed.clients().response_times().quantile(0.99);
  for (std::size_t i = 0; i < bed.system().num_tiers(); ++i) {
    const queueing::TierServer& tier = bed.system().tier(i);
    f.tier_counters.push_back(tier.offered());
    f.tier_counters.push_back(tier.admitted());
    f.tier_counters.push_back(tier.rejected());
    f.tier_counters.push_back(tier.completed());
    f.occupancy.push_back(tier.resident());
    f.occupancy.push_back(tier.waiting());
    f.occupancy.push_back(tier.awaiting_reply());
  }
  f.bandwidth = bed.target_host().achieved_bandwidth(bed.target_vm());
  std::vector<const TimeSeries*> series = {&bed.target_cpu().series()};
  for (std::size_t i = 0; i < bed.system().num_tiers(); ++i) {
    series.push_back(&bed.queue_gauge(i).series());
  }
  for (const TimeSeries* s : series) {
    f.series_sizes.push_back(s->size());
    for (const Sample& sample : s->samples()) {
      f.series_times.push_back(sample.time);
      f.series_values.push_back(sample.value);
    }
  }
  return f;
}

void expect_fingerprint_eq(const Fingerprint& a, const Fingerprint& b, int replay) {
  EXPECT_EQ(a.now, b.now) << "replay " << replay;
  EXPECT_EQ(a.events, b.events) << "replay " << replay;
  EXPECT_EQ(a.completed, b.completed) << "replay " << replay;
  EXPECT_EQ(a.drops, b.drops) << "replay " << replay;
  EXPECT_EQ(a.failed, b.failed) << "replay " << replay;
  EXPECT_EQ(a.retransmitted, b.retransmitted) << "replay " << replay;
  EXPECT_EQ(a.idle_users, b.idle_users) << "replay " << replay;
  EXPECT_EQ(a.live_slots, b.live_slots) << "replay " << replay;
  EXPECT_EQ(a.rto_backlog, b.rto_backlog) << "replay " << replay;
  EXPECT_EQ(a.sub_slot_counts, b.sub_slot_counts) << "replay " << replay;
  EXPECT_EQ(a.p50, b.p50) << "replay " << replay;
  EXPECT_EQ(a.p99, b.p99) << "replay " << replay;
  EXPECT_EQ(a.tier_counters, b.tier_counters) << "replay " << replay;
  EXPECT_EQ(a.occupancy, b.occupancy) << "replay " << replay;
  EXPECT_EQ(a.bandwidth, b.bandwidth) << "replay " << replay;
  EXPECT_EQ(a.series_sizes, b.series_sizes) << "replay " << replay;
  EXPECT_EQ(a.series_times, b.series_times) << "replay " << replay;
  EXPECT_EQ(a.series_values, b.series_values) << "replay " << replay;
}

/// The two worlds the rollback tests rewind: the paper's exact 3.5k-user
/// testbed, and 35,000 cohort users on the 100 us service grid. The cohort
/// world drops from its first second on, so at 4.65 s its RTO ledger holds
/// groups at attempt 2 (drops in the first 0.65 s that bounced again at
/// their fires 1 s and 3 s later), beside groups at attempts 0 and 1.
struct RollbackInput {
  const char* name;
  TestbedConfig config;
  SimTime capture_at;
};

std::vector<RollbackInput> rollback_inputs(std::uint64_t seed, SimTime exact_capture_at) {
  TestbedConfig exact;
  exact.seed = seed;
  TestbedConfig cohort = exact;
  cohort.client_mode = workload::ClientMode::kCohort;
  cohort.service_quantum_us = 100;
  cohort.num_users = 35000;
  return {{"exact", exact, exact_capture_at}, {"cohort-q100", cohort, msec(4650)}};
}

/// Manual burst train (300 ms ON every second from 0.5 s) at `intensity`.
/// Deliberately not MemcaAttack: attack objects are created after a
/// snapshot and destroyed before a rollback, so their internal state is
/// never checkpointed — plain scheduled closures are, and those are what
/// these tests exercise.
void schedule_bursts(RubbosTestbed& bed, int bursts, double intensity) {
  cloud::Host& host = bed.target_host();
  const cloud::VmId vm = bed.adversary_vm();
  for (int k = 0; k < bursts; ++k) {
    const SimTime on = msec(500) + k * sec(std::int64_t{1});
    bed.sim().schedule_at(on, [&host, vm, intensity] {
      host.set_memory_activity(vm, 0.0, intensity);
    });
    bed.sim().schedule_at(on + msec(300), [&host, vm] { host.clear_memory_activity(vm); });
  }
}

TEST(SnapshotRollback, MidBurstMidRtoSegmentReplaysByteForByte) {
  // Snapshot the world at its most entangled: inside a contention burst
  // (adversary lock activity ON, capacity degraded), with retransmission
  // timers parked in the wheel from drops in earlier bursts. The segment
  // after the snapshot must replay exactly — including the bursts' OFF
  // edges and the pending RTOs, both of which live in the simulator's event
  // arena at capture time. Replayed twice from the one snapshot: repeated
  // rollback is part of the contract (one warm world serves many cells).
  // 4.65 s is inside burst #4 (4.5 s – 4.8 s).
  for (const RollbackInput& input : rollback_inputs(7, msec(4650))) {
    SCOPED_TRACE(input.name);
    RubbosTestbed bed(input.config);
    bed.start();
    schedule_bursts(bed, 12, 0.95);

    bed.sim().run_until(input.capture_at);
    ASSERT_GT(bed.clients().dropped_attempts(), 0)
        << "scenario must have drops before the snapshot so RTO timers are pending";
    ASSERT_GT(bed.clients().rto_backlog(), 0) << "RTO state must be live at capture";
    if (input.config.client_mode == workload::ClientMode::kCohort) {
      // Each attempt level with queued groups is an agenda item, so the
      // rollback rewinds at least two level heads mid-flight.
      const workload::RtoLedger& ledger = bed.clients().rto_ledger();
      int busy_levels = 0;
      for (std::size_t a = 0; a < ledger.levels(); ++a) {
        busy_levels += ledger.due(static_cast<int>(a)) != workload::RtoLedger::kNone;
      }
      ASSERT_GE(busy_levels, 2) << "RTO groups must be queued at two attempts or more";
      // The capture instant is a tick: the tick and its first sub-slot ran,
      // and later sub-slots of this tick still wait to send.
      const std::span<const std::int64_t> counts = bed.clients().sub_slot_counts();
      ASSERT_TRUE(std::any_of(counts.begin(), counts.end(),
                              [](std::int64_t n) { return n > 0; }))
          << "a sub-slot item of the current tick must be pending at capture";
    }
    bed.snapshot();

    const Fingerprint first = run_segment(bed, sec(std::int64_t{4}));
    EXPECT_GT(first.retransmitted, 0)
        << "segment must complete retransmissions scheduled before the snapshot";
    for (int replay = 1; replay <= 2; ++replay) {
      bed.rollback();
      expect_fingerprint_eq(first, run_segment(bed, sec(std::int64_t{4})), replay);
    }
  }
}

TEST(SnapshotRollback, RollbackAllocatesNothingAfterTheFirstSnapshot) {
  // capture() may allocate (it builds the checkpoint buffers); rollback()
  // must not — it only truncates and copies into existing capacity. This is
  // what keeps the warm sweep path allocation-quiet no matter how many
  // cells rewind one world.
  for (RollbackInput input : rollback_inputs(11, msec(3650))) {
    SCOPED_TRACE(input.name);
    input.config.metrics = true;
    input.config.trace = true;
    RubbosTestbed bed(input.config);
    bed.start();
    schedule_bursts(bed, 8, 0.9);
    bed.sim().run_until(input.capture_at);
    if (input.config.client_mode == workload::ClientMode::kCohort) {
      ASSERT_GT(bed.clients().rto_backlog(), 0) << "the RTO ledger must be populated at capture";
    }
    bed.snapshot();

    for (int round = 0; round < 2; ++round) {
      // Diverge well past the snapshot so the rollback has real work: grown
      // series, rotated event-arena state, moved requests, advanced RNGs.
      bed.sim().run_for(sec(std::int64_t{2}));
      tests::ScopedAllocationCounter counter;
      bed.rollback();
      EXPECT_EQ(counter.count(), 0) << "round " << round;
    }
  }
}

// -- tier counters vs checkpointing -----------------------------------------
//
// Tier throughput counters and their registry handles update at the point
// each request is offered, admitted, rejected or completed. These tests pin
// that reads are exact at any instant (same-instant completion groups
// included), that a drop and its retransmission interleave correctly with
// a completion group, and that the SoA request arena round-trips through
// capture/restore byte for byte.

queueing::Request* submit_one(queueing::NTierSystem& system, queueing::Request::Id id,
                              std::vector<double> demand) {
  queueing::Request* req = system.acquire();
  req->id = id;
  req->demand_us = std::move(demand);
  return system.submit(req) ? req : nullptr;
}

TEST(TierCounters, CountersExactWhenObservedAtTheBatchInstant) {
  // Eight equal-demand requests start together, so their completions all
  // land on one instant. An observer event scheduled at that same instant
  // fires after every completion and must read (and capture) the settled
  // totals.
  Simulator sim;
  queueing::NTierSystem system(sim, {{"solo", 32, 8}});
  for (int i = 0; i < 8; ++i) ASSERT_NE(submit_one(system, i, {100.0}), nullptr);
  std::int64_t seen_completed = -1;
  queueing::TierServer::Snapshot mid;
  sim.schedule_at(usec(100), [&] {
    seen_completed = system.tier(0).completed();
    system.tier(0).capture(mid);
  });
  sim.run_all();
  EXPECT_EQ(seen_completed, 8);
  EXPECT_EQ(mid.completed, 8);
  EXPECT_EQ(system.completed(), 8);
}

TEST(TierCounters, CountersSettledInsideGroupReplies) {
  // A quantized chain: eight equal demands start together at every tier,
  // so they complete as one group at the back tier and the front tier
  // delivers all eight replies in one batch. Code running inside that
  // batch callback must see every tier's counters settled: no tier may
  // still hold counts that only land after the replies are out.
  Simulator sim;
  std::vector<queueing::TierConfig> tiers = {
      {"front", 32, 8}, {"mid", 16, 8}, {"back", 8, 8}};
  for (queueing::TierConfig& tier : tiers) tier.service_quantum_us = 100;
  queueing::NTierSystem system(sim, tiers);
  std::vector<std::size_t> batch_sizes;
  system.set_on_complete_batch([&](queueing::Request* const*, std::size_t n) {
    batch_sizes.push_back(n);
    for (std::size_t i = 0; i < system.num_tiers(); ++i) {
      const queueing::TierServer& tier = system.tier(i);
      EXPECT_EQ(tier.offered(), 8) << tier.name();
      EXPECT_EQ(tier.admitted(), 8) << tier.name();
      EXPECT_EQ(tier.rejected(), 0) << tier.name();
      EXPECT_EQ(tier.completed(), 8) << tier.name();
    }
  });
  for (int i = 0; i < 8; ++i) {
    ASSERT_NE(submit_one(system, i, {100.0, 100.0, 100.0}), nullptr);
  }
  sim.run_all();
  EXPECT_EQ(batch_sizes, (std::vector<std::size_t>{8}));
  EXPECT_EQ(system.completed(), 8);
}

TEST(TierCounters, DropRetransmitCrossingTheBatchBoundary) {
  // A front-tier drop fires at the same instant as (and just before) two
  // same-instant completions: the rejection must be visible to the drop
  // callback at once, and the retransmission must complete against the
  // post-completion world. This is the drop→retransmit round trip the
  // client RTO path performs, compressed onto one instant.
  Simulator sim;
  queueing::NTierSystem system(sim, {{"solo", 2, 2}});
  std::int64_t drops_seen_rejected = -1;
  bool retransmitted = false;
  system.set_on_drop([&](const queueing::Request& r) {
    // Mid-instant read, ahead of the completions: the rejection is visible now.
    drops_seen_rejected = system.tier(0).rejected();
    const queueing::Request::Id id = r.id;
    sim.schedule_in(msec(1), [&, id] {
      retransmitted = true;
      queueing::Request* retry = system.acquire();
      retry->id = id;
      retry->set_attempt(1);
      retry->demand_us = {200.0};
      EXPECT_TRUE(system.submit(retry));
    });
  });
  // Scheduled first: fires ahead of the two completions due at 500 us,
  // while both threads are still held -> rejected, then retransmitted.
  sim.schedule_at(usec(500), [&] { submit_one(system, 99, {200.0}); });
  ASSERT_NE(submit_one(system, 1, {500.0}), nullptr);
  ASSERT_NE(submit_one(system, 2, {500.0}), nullptr);
  sim.run_all();
  EXPECT_EQ(drops_seen_rejected, 1);
  EXPECT_TRUE(retransmitted);
  EXPECT_EQ(system.completed(), 3);
  EXPECT_EQ(system.dropped(), 1);
  EXPECT_EQ(system.in_flight(), 0);
  EXPECT_EQ(system.tier(0).offered(), 4);
  EXPECT_EQ(system.tier(0).admitted(), 3);
}

TEST(TierCounters, ArenaLanesRoundTripThroughSnapshot) {
  // The request arena's hot lanes (timestamps, attempt, state, per-tier
  // stamps) are part of the pool snapshot; a rollback must restore every
  // lane exactly, including for requests that were mid-flight at capture.
  Simulator sim;
  queueing::NTierSystem system(sim, {{"front", 8, 2}, {"back", 4, 1}});
  for (int i = 0; i < 4; ++i) {
    queueing::Request* req = system.acquire();
    req->id = i + 1;
    req->set_attempt(i);
    req->set_first_sent(sim.now());
    req->set_sent(sim.now());
    req->demand_us = {100.0, 10000.0};
    ASSERT_TRUE(system.submit(req));
  }
  sim.run_until(usec(300));  // front services done, requests resident in back

  queueing::NTierSystem::Snapshot world;
  Simulator::Snapshot events;
  system.capture(world);
  sim.capture(events);
  const queueing::RequestHotArena& hot = system.pool().hot();
  std::vector<std::int32_t> attempts;
  std::vector<queueing::TierTrace> stamps;
  for (std::uint32_t s = 0; s < system.pool().slots(); ++s) {
    attempts.push_back(hot.attempt(s));
    for (std::size_t t = 0; t < hot.depth(); ++t) stamps.push_back(hot.stamp(s, t));
  }

  sim.run_for(sec(std::int64_t{1}));  // diverge: everything completes
  EXPECT_EQ(system.in_flight(), 0);
  sim.restore(events);
  system.restore(world);

  EXPECT_EQ(system.in_flight(), 4);
  for (std::uint32_t s = 0; s < system.pool().slots(); ++s) {
    EXPECT_EQ(hot.attempt(s), attempts[s]) << "slot " << s;
    for (std::size_t t = 0; t < hot.depth(); ++t) {
      const queueing::TierTrace& now = hot.stamp(s, t);
      const queueing::TierTrace& then = stamps[s * hot.depth() + t];
      EXPECT_EQ(now.enter, then.enter) << "slot " << s << " tier " << t;
      EXPECT_EQ(now.service_start, then.service_start) << "slot " << s << " tier " << t;
      EXPECT_EQ(now.leave, then.leave) << "slot " << s << " tier " << t;
    }
  }
  // The rewound world must drain to the same totals as the first pass.
  sim.run_all();
  EXPECT_EQ(system.completed(), 4);
}

}  // namespace
}  // namespace memca::testbed
