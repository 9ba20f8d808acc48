// FlightRecorder behaviour: incident lifecycle on synthetic signals, ring
// pinning, steady-state allocation freedom, testbed forensics under the
// calibrated attack, mid-incident checkpoint/rollback and sweep-thread
// invariance of the emitted incident JSON.
//
// Every suite name contains "FlightRec" — the asan/tsan CI filters select
// on that token.
#include "flightrec/flight_recorder.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "flightrec/incident.h"
#include "sim/simulator.h"
#include "support/counting_alloc.h"
#include "support/trace_skip.h"
#include "testbed/attack_lab.h"
#include "testbed/rubbos_testbed.h"
#include "trace/recorder.h"

namespace memca::flightrec {
namespace {

/// A FlightRecorder fed synthetic telemetry frames every 50 ms (a settable
/// capacity value, queue depth, rejection count and RTO backlog), no
/// testbed behind them.
struct Harness {
  Simulator sim;
  trace::TraceRecorder ring{trace::TraceRecorder::Config{1024}};  // one 2,048-event chunk
  double capacity = 1.0;
  int queue_depth = 0;
  std::int64_t rejected = 0;
  int rto_backlog = 0;
  FlightRecorder flight;
  PeriodicTask clock;

  explicit Harness(FlightRecorderConfig config = {})
      : flight(&ring, config), clock(sim, msec(50), [this] { push_frame(); }) {}

  void push_frame() {
    monitor::TelemetryFrame frame;
    frame.now = sim.now();
    frame.window = msec(50);
    frame.tiers = 1;
    frame.resident[0] = queue_depth;
    frame.rejected[0] = rejected;
    frame.capacity_multiplier = capacity;
    frame.rto_backlog = rto_backlog;
    flight.tick(frame);
  }
};

TEST(FlightRecDetector, CapacityDipTrainFoldsIntoOneIncident) {
  Harness h;
  // Two 100 ms dips 2 s apart, then silence: one incident, two episodes,
  // interval estimate = the true 2 s spacing.
  for (SimTime at : {sec(std::int64_t{1}), sec(std::int64_t{3})}) {
    h.sim.schedule_at(at, [&h] { h.capacity = 0.4; });
    h.sim.schedule_at(at + msec(100), [&h] { h.capacity = 1.0; });
  }
  h.sim.run_until(sec(std::int64_t{8}));
  h.flight.finalize();

  ASSERT_EQ(h.flight.incidents().size(), 1u);
  const Incident& inc = h.flight.incidents().front();
  EXPECT_EQ(inc.trigger, IncidentTrigger::kCapacityDip);
  EXPECT_EQ(inc.dip_episodes, 2);
  EXPECT_EQ(inc.burst_interval_estimate, sec(std::int64_t{2}));
  EXPECT_EQ(inc.dip_depth, 0.4);
  EXPECT_EQ(inc.affected_requests, 0);
  EXPECT_FALSE(inc.frames.empty());
  // Quiet run: a second pass over the same span emits nothing new.
  EXPECT_EQ(h.flight.incidents_dropped(), 0);
}

TEST(FlightRecDetector, QuietBaselineEmitsNoIncidents) {
  Harness h;
  h.sim.run_until(sec(std::int64_t{10}));
  h.flight.finalize();
  EXPECT_TRUE(h.flight.incidents().empty());
  // ~10 s of 50 ms frames (boundary tick inclusion depends on run_until).
  EXPECT_GE(h.flight.timeline().total(), 199u);
  EXPECT_LE(h.flight.timeline().total(), 200u);
}

TEST(FlightRecDetector, VlrtCompletionPinsRingSpans) {
  MEMCA_SKIP_IF_TRACE_DISABLED();
  Harness h;
  h.sim.schedule_at(msec(2500), [&h] {
    // The VLRT request's history: a drop at 1 s, an RTO retransmission, the
    // retried tier span, interleaved with another user's traffic and a
    // capacity context mark.
    trace::TraceEvent ev;
    ev.user = 7;
    ev.request = 100;
    ev.kind = trace::EventKind::kDrop;
    ev.time = sec(std::int64_t{1});
    h.ring.record(ev);
    ev.kind = trace::EventKind::kRetransmit;
    ev.aux = sec(std::int64_t{1});
    h.ring.record(ev);
    trace::TraceEvent other = ev;
    other.user = 9;
    other.request = 101;
    other.kind = trace::EventKind::kTierSpan;
    other.time = msec(1100);
    h.ring.record(other);
    trace::TraceEvent cap;
    cap.kind = trace::EventKind::kCapacity;
    cap.request = 0;
    cap.time = msec(1200);
    cap.value = 0.5;
    h.ring.record(cap);
    ev.kind = trace::EventKind::kTierSpan;
    ev.time = msec(2100);
    ev.aux = sec(std::int64_t{2});
    ev.value = 2.05e6;
    ev.tier = 0;
    h.ring.record(ev);
    ev.kind = trace::EventKind::kComplete;
    ev.time = msec(2500);
    ev.aux = msec(500);  // first_sent
    ev.attempt = 1;
    h.ring.record(ev);
    h.flight.on_completion(h.sim.now(), msec(500), 7, msec(2000), true);
  });
  h.sim.run_until(sec(std::int64_t{6}));
  h.flight.finalize();

  ASSERT_EQ(h.flight.incidents().size(), 1u);
  const Incident& inc = h.flight.incidents().front();
  EXPECT_EQ(inc.trigger, IncidentTrigger::kVlrtCompletion);
  EXPECT_EQ(inc.affected_requests, 1);
  EXPECT_EQ(inc.worst_rt, msec(2000));
  EXPECT_EQ(inc.retransmissions, 1);
  // User 7's four events plus the capacity context mark; user 9's excluded.
  EXPECT_EQ(inc.pinned_events, 5);
  EXPECT_EQ(inc.window_start, msec(500));
}

TEST(FlightRecDetector, QueueOverflowDropsOpenAndSplitByTier) {
  Harness h;
  h.sim.schedule_at(sec(std::int64_t{1}), [&h] { h.rejected += 17; });
  h.sim.run_until(sec(std::int64_t{5}));
  h.flight.finalize();
  ASSERT_EQ(h.flight.incidents().size(), 1u);
  const Incident& inc = h.flight.incidents().front();
  EXPECT_EQ(inc.trigger, IncidentTrigger::kQueueOverflow);
  EXPECT_EQ(inc.drop_count, 17);
  EXPECT_EQ(inc.overflowed_tier, 0);
  EXPECT_EQ(inc.tier_drops[0], 17);
}

TEST(FlightRecDetector, IncidentBudgetCountsOverflow) {
  FlightRecorderConfig config;
  config.max_incidents = 2;
  config.quiet_close = msec(200);
  Harness h(config);
  for (int k = 0; k < 5; ++k) {
    const SimTime at = sec(std::int64_t{1 + 2 * k});
    h.sim.schedule_at(at, [&h] { h.capacity = 0.3; });
    h.sim.schedule_at(at + msec(100), [&h] { h.capacity = 1.0; });
  }
  h.sim.run_until(sec(std::int64_t{12}));
  h.flight.finalize();
  EXPECT_EQ(h.flight.incidents().size(), 2u);
  EXPECT_EQ(h.flight.incidents_dropped(), 3);
  EXPECT_EQ(h.flight.incidents_total(), 5);
}

TEST(FlightRecSteadyStateAllocation, HotPathsAllocateNothing) {
  MEMCA_SKIP_IF_TRACE_DISABLED();
  // The always-on claim: once warm, ring appends (wrapped), timeline ticks,
  // VLRT pinning into the reserved budget and checkpoint restore all run
  // without touching the heap. Incident *close* is exempt — it is the rare
  // forensic event and may build its record.
  Harness h;
  trace::TraceEvent ev;
  ev.kind = trace::EventKind::kTierSpan;
  ev.user = 3;
  // Warm-up: wrap the ring, exercise every tick path, pin once, and let the
  // periodic task cycle its simulator slot.
  for (int i = 0; i < 4096; ++i) {
    ev.time = msec(i);
    h.ring.record(ev);
  }
  h.flight.on_completion(msec(100), msec(50), 3, sec(std::int64_t{2}), true);
  // Longer than a full level-0 timing-wheel rotation, so the periodic
  // tick's bucket occupancy has cycled capacity into every index the
  // counted window can reach (same trick as the workload steady-state
  // test), and long enough for quiet_close to fold the warm-up incident.
  h.sim.run_until(sec(std::int64_t{5}));
  FlightRecorder::Snapshot flight_snap;
  trace::TraceRecorder::Snapshot ring_snap;
  Simulator::Snapshot sim_snap;
  h.flight.capture(flight_snap);  // capture may allocate; restore must not
  h.ring.capture(ring_snap);
  h.sim.capture(sim_snap);

  tests::ScopedAllocationCounter counter;
  for (int i = 0; i < 2000; ++i) {
    ev.time = sec(std::int64_t{5}) + msec(i);
    h.ring.record(ev);
  }
  h.flight.on_completion(h.sim.now(), sec(std::int64_t{4}), 3, msec(1500), true);
  h.sim.run_for(sec(std::int64_t{1}));  // 20 ticks, incident stays open
  h.sim.restore(sim_snap);
  h.ring.restore(ring_snap);
  h.flight.restore(flight_snap);
  EXPECT_EQ(counter.count(), 0)
      << "warm flight-recorder paths and rollback must not allocate";
}

std::string incidents_json(const std::vector<Incident>& incidents) {
  std::ostringstream out;
  write_incidents_json(out, incidents, {"apache", "tomcat", "mysql"});
  return out.str();
}

TEST(FlightRecTestbed, AttackForensicsAndCleanBaseline) {
  MEMCA_SKIP_IF_TRACE_DISABLED();
  // Calibrated memory-lock attack (L=500 ms, I=2 s) for 45 s: the burst
  // train must fold into incidents whose pinned-span decomposition is
  // retransmission-dominated — the paper's tail mechanism recovered from
  // bounded black-box state. The attack-free control on the same config
  // must stay incident-free.
  auto run = [](bool attacked) {
    testbed::TestbedConfig config;
    config.flightrec = true;
    auto bed = std::make_unique<testbed::RubbosTestbed>(config);
    bed->start();
    std::unique_ptr<core::MemcaAttack> attack;
    if (attacked) {
      core::MemcaConfig memca;
      memca.enable_controller = false;
      memca.params.burst_length = msec(500);
      memca.params.burst_interval = sec(std::int64_t{2});
      memca.params.type = cloud::MemoryAttackType::kMemoryLock;
      attack = bed->make_attack(memca);
      attack->start();
    }
    bed->sim().run_for(sec(std::int64_t{45}));
    if (attack) attack->stop();
    bed->sim().run_for(sec(std::int64_t{5}));
    bed->flight()->finalize();
    return bed;
  };

  {
    auto bed = run(false);
    EXPECT_TRUE(bed->flight()->incidents().empty()) << "baseline must be incident-free";
    EXPECT_GT(bed->flight()->client_latency().count(), 0);
  }

  auto bed = run(true);
  const FlightRecorder& flight = *bed->flight();
  // The recorder keeps no latency of its own: its views are the owners'
  // histograms, so every sample is recorded once.
  EXPECT_EQ(&flight.client_latency(), &bed->clients().response_times());
  for (std::size_t i = 0; i < bed->system().num_tiers(); ++i) {
    EXPECT_EQ(&flight.tier_residence(i), &bed->system().tier(i).residence_time());
  }
  ASSERT_GE(flight.incidents().size(), 1u);
  EXPECT_GT(flight.affected_requests_total(), 0);
  EXPECT_GT(flight.pinned_events_total(), 0);
  bool retrans_dominated = false;
  for (const Incident& inc : flight.incidents()) {
    EXPECT_GE(inc.worst_rt, flight.config().vlrt_threshold);
    if (inc.decomposition.tail_count > 0 &&
        inc.decomposition.retrans_dominated_share() > 0.5) {
      retrans_dominated = true;
    }
  }
  EXPECT_TRUE(retrans_dominated)
      << "at least one incident's VLRT decomposition must be RTO-dominated";
  // The client view sees the amplified tail.
  EXPECT_GT(flight.client_latency().quantile(0.99), sec(std::int64_t{1}));
}

TEST(FlightRecSnapshot, MidIncidentRollbackReplaysByteIdenticalJson) {
  MEMCA_SKIP_IF_TRACE_DISABLED();
  // Snapshot with an incident window open (mid burst train, ring wrapped,
  // pins accumulated), then replay the remainder twice: the incident JSON —
  // windows, decomposition, frozen frames, everything — must come back byte
  // for byte. Manual burst closures, not MemcaAttack: attack objects are
  // not checkpointable, scheduled closures are.
  testbed::TestbedConfig config;
  config.flightrec = true;
  config.seed = 7;
  testbed::RubbosTestbed bed(config);
  bed.start();

  cloud::Host& host = bed.target_host();
  const cloud::VmId vm = bed.adversary_vm();
  for (int k = 0; k < 30; ++k) {
    const SimTime on = msec(500) + k * sec(std::int64_t{1});
    bed.sim().schedule_at(on, [&host, vm] { host.set_memory_activity(vm, 0.0, 0.95); });
    bed.sim().schedule_at(on + msec(300), [&host, vm] { host.clear_memory_activity(vm); });
  }

  // 12.65 s: mid-burst, well past warmup, VLRT completions and dips have
  // an incident window open (bursts every 1 s never let quiet_close fire).
  bed.sim().run_until(msec(12650));
  ASSERT_GT(bed.clients().dropped_attempts(), 0);
  bed.snapshot();

  auto segment = [&bed] {
    bed.sim().run_for(sec(std::int64_t{8}));
    bed.flight()->finalize();
    return incidents_json(bed.flight()->incidents());
  };
  const std::string first = segment();
  EXPECT_NE(first.find("\"incidents\""), std::string::npos);
  for (int replay = 1; replay <= 2; ++replay) {
    bed.rollback();
    EXPECT_EQ(segment(), first) << "replay " << replay;
  }
}

TEST(FlightRecSweep, IncidentJsonInvariantAcrossThreadCounts) {
  MEMCA_SKIP_IF_TRACE_DISABLED();
  // Two cells (baseline + attacked) per sweep; concatenated incident JSON
  // must not depend on the worker count — same contract the CI gate
  // enforces on fig_incident_forensics at MEMCA_SWEEP_THREADS=1/2/4.
  auto make_cells = [] {
    std::vector<testbed::AttackLabConfig> cells;
    for (bool attacked : {false, true}) {
      testbed::AttackLabConfig config;
      config.testbed.flightrec = true;
      config.params.burst_length = msec(500);
      config.params.burst_interval = sec(std::int64_t{2});
      config.params.type = cloud::MemoryAttackType::kMemoryLock;
      config.warmup = sec(std::int64_t{5});
      config.duration = sec(std::int64_t{25});
      config.attack_enabled = attacked;
      cells.push_back(config);
    }
    return cells;
  };
  auto sweep_json = [&](int threads) {
    std::vector<testbed::AttackLabResult> results =
        testbed::run_attack_lab_sweep(make_cells(), threads);
    std::string out;
    for (const testbed::AttackLabResult& r : results) out += incidents_json(r.incidents);
    return out;
  };
  const std::string one = sweep_json(1);
  EXPECT_NE(one.find("\"incident_count\": "), std::string::npos);
  EXPECT_EQ(sweep_json(2), one);
  EXPECT_EQ(sweep_json(4), one);
}

}  // namespace
}  // namespace memca::flightrec
