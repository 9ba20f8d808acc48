// Layer probes of the traced binary. The ladder builds the Fig. 2 scenario
// from the outside in, one layer per rung, and times each rung over the
// same simulated window; the difference between adjacent rungs is the
// price of the layer added between them. The snapshot and sweep probes time
// the checkpoint and the parallel grid split that the sweep-grid workload
// relies on.
#include <memory>
#include <string>
#include <vector>

#include "queueing/ntier.h"
#include "queueing/tandem.h"
#include "testbed/rubbos_testbed.h"
#include "workload/clients.h"
#include "workload/openloop.h"
#include "workloads.h"

namespace memca::bench {

namespace {

constexpr SimTime kRungRamp = sec(std::int64_t{20});
constexpr SimTime kRungSlice = sec(std::int64_t{10});
/// Events per simulated second of the attacked Fig. 2 testbed (the
/// testbed-attacked rung at seed 42); the engine rung fires no-op periodic
/// tasks at this rate.
constexpr double kFig2EventsPerSimS = 2100.0;

struct Rung {
  std::string name;
  double ms_per_sim_s = 0.0;
  double events_per_sim_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t allocations = 0;
  std::uint64_t pool_slots = 0;
  std::uint64_t pending_high_water = 0;
};

/// Ramps the rung's world to t = 20 s, then times `measure` simulated
/// seconds in 10 s slices (median CPU ms per simulated second on the
/// reference core, see HostSpeed: rungs run up to a minute apart, and
/// unscaled times would mix host-speed drift into the rung differences).
Rung measure_rung(const char* name, Simulator& sim, const RunOptions& o) {
  const SimTime measure = o.quick ? sec(std::int64_t{20}) : sec(std::int64_t{600});
  Rung rung;
  rung.name = name;
  Span span(std::string("ladder.") + name);
  {
    Span s("ladder.ramp");
    sim.run_until(kRungRamp);
  }
  HostSpeed speed;
  std::vector<double> ms_per_sim_s;
  ms_per_sim_s.reserve(static_cast<std::size_t>(measure / kRungSlice));
  const std::uint64_t events0 = sim.events_executed();
  const std::uint64_t allocs0 = allocations();
  for (SimTime done = 0; done < measure; done += kRungSlice) {
    speed.sample();
    Span s("ladder.slice");
    const double c0 = cpu_seconds();
    sim.run_for(kRungSlice);
    ms_per_sim_s.push_back((cpu_seconds() - c0) * 1e3 / to_seconds(kRungSlice));
  }
  rung.allocations = allocations() - allocs0;
  rung.events = sim.events_executed() - events0;
  rung.events_per_sim_s = static_cast<double>(rung.events) / to_seconds(measure);
  for (std::size_t i = 0; i < ms_per_sim_s.size(); ++i) ms_per_sim_s[i] *= speed.scale_near(i);
  rung.ms_per_sim_s = median(ms_per_sim_s);
  rung.pool_slots = sim.pool_slots();
  rung.pending_high_water = sim.pending_high_water();
  span.arg("events", static_cast<double>(rung.events));
  return rung;
}

constexpr SimTime kEnginePeriod = msec(50);

Rung rung_engine(const RunOptions& o) {
  Simulator sim;
  const int count = static_cast<int>(kFig2EventsPerSimS * to_seconds(kEnginePeriod));
  std::vector<std::unique_ptr<PeriodicTask>> tasks;
  tasks.reserve(static_cast<std::size_t>(count));
  // Staggered phases, so the tasks do not all fire on the same instants.
  for (int i = 0; i < count; ++i) {
    sim.schedule_at(kEnginePeriod * i / count, [&sim, &tasks] {
      tasks.push_back(std::make_unique<PeriodicTask>(sim, kEnginePeriod, [] {}));
    });
  }
  return measure_rung("engine", sim, o);
}

/// Open-loop Poisson arrivals at the Fig. 2 request rate (3,500 users /
/// 7 s think time) into the tandem model or the RPC-coupled n-tier chain.
Rung rung_openloop(const RunOptions& o, bool ntier) {
  const testbed::TestbedConfig calibration;
  const std::vector<queueing::TierConfig> tiers = {calibration.apache, calibration.tomcat,
                                                   calibration.mysql};
  Simulator sim;
  std::unique_ptr<queueing::RequestSystem> system;
  if (ntier) {
    system = std::make_unique<queueing::NTierSystem>(sim, tiers);
  } else {
    // Same workers, and waiting rooms sized so each station holds as many
    // requests as its tier's thread limit.
    std::vector<queueing::StationConfig> stations;
    for (const queueing::TierConfig& tier : tiers) {
      stations.push_back({tier.name, tier.workers, tier.threads - tier.workers});
    }
    system = std::make_unique<queueing::TandemQueueSystem>(sim, stations);
  }
  workload::RequestRouter router(*system);
  workload::OpenLoopConfig config;
  config.rate_per_sec = 500.0;
  config.stats_warmup = calibration.stats_warmup;
  workload::OpenLoopSource source(sim, router, workload::rubbos_profile(), config, Rng(o.seed));
  source.start();
  Rung rung = measure_rung(ntier ? "openloop-ntier" : "openloop-tandem", sim, o);
  source.stop();
  return rung;
}

Rung rung_closedloop(const RunOptions& o, const char* name, int users, workload::ClientMode mode,
                     std::uint32_t quantum_us) {
  const testbed::TestbedConfig calibration;
  std::vector<queueing::TierConfig> tiers = {calibration.apache, calibration.tomcat,
                                             calibration.mysql};
  for (queueing::TierConfig& tier : tiers) tier.service_quantum_us = quantum_us;
  Simulator sim;
  queueing::NTierSystem system(sim, tiers);
  workload::RequestRouter router(system);
  workload::ClientConfig config;
  config.num_users = users;
  config.mode = mode;
  config.stats_warmup = calibration.stats_warmup;
  workload::ClosedLoopClients clients(sim, router, workload::rubbos_profile(), config,
                                     Rng(o.seed));
  clients.start();
  return measure_rung(name, sim, o);
}

Rung rung_testbed(const RunOptions& o, const char* name, testbed::TestbedConfig config,
                  bool attacked) {
  config.seed = o.seed;
  testbed::RubbosTestbed bed(config);
  bed.start();
  std::unique_ptr<core::MemcaAttack> attack;
  if (attacked) {
    attack = bed.make_attack(fig2_attack());
    attack->start();
  }
  return measure_rung(name, bed.sim(), o);
}

std::vector<Rung> run_ladder(const RunOptions& o) {
  const testbed::TestbedConfig fig2 = fig2_cell(o.seed).testbed;
  testbed::TestbedConfig metrics = fig2;
  metrics.metrics = true;
  testbed::TestbedConfig flightrec = metrics;
  flightrec.flightrec = true;
  testbed::TestbedConfig q100 = fig2;
  q100.service_quantum_us = 100;
  testbed::TestbedConfig scale = q100;
  scale.num_users = 3'500'000;
  scale.client_mode = workload::ClientMode::kCohort;

  std::vector<Rung> rungs;
  rungs.push_back(rung_engine(o));
  rungs.push_back(rung_openloop(o, false));
  rungs.push_back(rung_openloop(o, true));
  rungs.push_back(rung_closedloop(o, "closedloop-ntier", 3500, workload::ClientMode::kExact, 0));
  rungs.push_back(rung_testbed(o, "testbed", fig2, false));
  rungs.push_back(rung_testbed(o, "testbed-attacked", fig2, true));
  rungs.push_back(rung_testbed(o, "metrics", metrics, true));
  rungs.push_back(rung_testbed(o, "flightrec", flightrec, true));
  rungs.push_back(rung_testbed(o, "q100", q100, true));
  rungs.push_back(rung_closedloop(o, "3m5.cohort-ntier", scale.num_users,
                                  workload::ClientMode::kCohort, 100));
  rungs.push_back(rung_testbed(o, "3m5.testbed", scale, false));
  rungs.push_back(rung_testbed(o, "3m5.testbed-attacked", scale, true));
  return rungs;
}

const Rung& find(const std::vector<Rung>& rungs, const std::string& name) {
  for (const Rung& r : rungs) {
    if (r.name == name) return r;
  }
  return rungs.front();  // unreachable: every name below is a rung
}

void probe_ladder(const RunOptions& o, Result& res) {
  const std::vector<Rung> rungs = run_ladder(o);
  for (const Rung& r : rungs) {
    res.metric("ladder." + r.name + ".ms_per_sim_s", r.ms_per_sim_s, "ms");
    res.metric("ladder." + r.name + ".events_per_sim_s", r.events_per_sim_s, "1/s");
  }
  // Each layer's price: the rung that adds it minus the rung below it.
  static const char* const kDeltas[][3] = {
      {"queueing.rpc_hold", "openloop-ntier", "openloop-tandem"},
      {"workload.closed_loop", "closedloop-ntier", "openloop-ntier"},
      {"cloud.coupling_and_monitor", "testbed", "closedloop-ntier"},
      {"core.attack", "testbed-attacked", "testbed"},
      {"metrics.plane", "metrics", "testbed-attacked"},
      {"flightrec.plane", "flightrec", "metrics"},
      {"queueing.quantum", "q100", "testbed-attacked"},
      {"core.attack.3m5", "3m5.testbed-attacked", "3m5.testbed"},
  };
  for (const auto& d : kDeltas) {
    const Rung& with = find(rungs, d[1]);
    const Rung& without = find(rungs, d[2]);
    res.metric(std::string(d[0]) + ".ms_per_sim_s", with.ms_per_sim_s - without.ms_per_sim_s, "ms");
    res.metric(std::string(d[0]) + ".events_per_sim_s",
               with.events_per_sim_s - without.events_per_sim_s, "1/s");
  }
}

/// Capture of a world warmed to the sweep grid's prefix (median of three
/// worlds), then rollbacks after one simulated second of divergence each.
void probe_snapshot(const RunOptions& o, Result& res) {
  const testbed::AttackLabConfig prefix = sweep_grid(o.seed).front();
  std::vector<double> capture_ms;
  std::unique_ptr<testbed::RubbosTestbed> bed;
  for (int k = 0; k < 3; ++k) {
    bed.reset();
    bed = std::make_unique<testbed::RubbosTestbed>(prefix.testbed);
    bed->start();
    bed->sim().run_for(prefix.warmup);
    Span s("snapshot.capture");
    bed->snapshot();
    capture_ms.push_back(s.finish());
  }
  std::vector<double> rollback_us;
  for (int r = 0; r < 100; ++r) {
    bed->sim().run_for(sec(std::int64_t{1}));
    Span s("snapshot.rollback");
    bed->rollback();
    rollback_us.push_back(s.finish() * 1e3);
  }
  res.metric("snapshot.capture_ms", median(capture_ms), "ms");
  res.metric("snapshot.rollback_us", median(rollback_us), "us", "p50 of 100 rollbacks");
}

/// One grid on one worker and one on two: the runner's parallel split.
void probe_sweep(const RunOptions& o, Result& res) {
  const std::vector<testbed::AttackLabConfig> grid = sweep_grid(o.seed);
  auto grid_wall_s = [&grid](int workers) {
    Span s(workers == 1 ? "sweep.grid.workers1" : "sweep.grid.workers2");
    const double w0 = wall_seconds();
    testbed::run_attack_lab_sweep(grid, workers);
    return wall_seconds() - w0;
  };
  const double one = grid_wall_s(1);
  const double two = grid_wall_s(2);
  res.metric("sweep.grid_wall_s", two, "s", "two workers");
  res.metric("sweep.grid_wall_s.workers1", one, "s");
  res.metric("sweep.speedup", one / two, "ratio");
  res.metric("sweep.efficiency", one / two / 2.0, "ratio");
}

}  // namespace

void run_probes(const RunOptions& options, Result& result) {
  probe_snapshot(options, result);
  probe_sweep(options, result);
  probe_ladder(options, result);
}

void run_ladder_counters(const RunOptions& options, Result& result) {
  for (const Rung& r : run_ladder(options)) {
    result.counter(r.name + ".events", r.events);
    result.counter(r.name + ".allocations", r.allocations);
    result.counter(r.name + ".pool_slots", r.pool_slots);
    result.counter(r.name + ".pending_high_water", r.pending_high_water);
  }
}

}  // namespace memca::bench
