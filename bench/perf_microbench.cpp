// Performance micro-benchmarks (google-benchmark): the hot paths of the
// simulation substrate. These guard the property that a 3-minute, 3500-user
// scenario runs in well under a second of wall-clock, which is what makes
// the parameter sweeps in the other benches affordable.
//
// To record a trackable snapshot (EXPERIMENTS.md "Performance"):
//   ./build/bench/perf_microbench --benchmark_format=json > BENCH_<rev>.json
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cloud/membw.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "flightrec/flight_recorder.h"
#include "metrics/registry.h"
#include "queueing/request_pool.h"
#include "queueing/tier.h"
#include "sim/simulator.h"
#include "sweep/sweep_runner.h"
#include "testbed/attack_lab.h"
#include "trace/recorder.h"

namespace memca {
namespace {

void BM_SimulatorScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    int sink = 0;
    for (int i = 0; i < 10000; ++i) {
      sim.schedule_at(usec(i), [&sink] { ++sink; });
    }
    sim.run_all();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SimulatorScheduleRun);

void BM_SimulatorCancelHeavy(benchmark::State& state) {
  // 10k scheduled events of which 80% are cancelled before they fire:
  // exercises slot recycling and the lazy heap compaction that sweeps
  // cancelled entries once they outnumber live ones.
  for (auto _ : state) {
    Simulator sim;
    int sink = 0;
    std::vector<EventHandle> handles;
    handles.reserve(10000);
    for (int i = 0; i < 10000; ++i) {
      handles.push_back(sim.schedule_at(usec(i), [&sink] { ++sink; }));
    }
    for (int i = 0; i < 10000; ++i) {
      if (i % 5 != 0) handles[static_cast<std::size_t>(i)].cancel();
    }
    sim.run_all();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SimulatorCancelHeavy);

void BM_PeriodicTaskTick(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    int ticks = 0;
    PeriodicTask task(sim, msec(1), [&ticks] { ++ticks; });
    sim.run_until(sec(std::int64_t{10}));
    benchmark::DoNotOptimize(ticks);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_PeriodicTaskTick);

void BM_HistogramRecord(benchmark::State& state) {
  LatencyHistogram hist;
  Rng rng(1);
  std::vector<SimTime> values;
  for (int i = 0; i < 4096; ++i) values.push_back(rng.exponential_time(msec(20)));
  std::size_t i = 0;
  for (auto _ : state) {
    hist.record(values[i++ & 4095]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

void BM_HistogramQuantile(benchmark::State& state) {
  LatencyHistogram hist;
  Rng rng(1);
  for (int i = 0; i < 100000; ++i) hist.record(rng.exponential_time(msec(20)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hist.quantile(0.95));
  }
}
BENCHMARK(BM_HistogramQuantile);

void BM_MemBwSharePackage(benchmark::State& state) {
  cloud::MemoryBandwidthModel model;
  cloud::PackageSpec package;
  std::vector<cloud::StreamDemand> streams;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    streams.push_back({i, 8.0, i == 0 ? 0.9 : 0.0, 1});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.share_package(package, streams));
  }
}
BENCHMARK(BM_MemBwSharePackage)->Arg(2)->Arg(6)->Arg(12);

void BM_RngExponential(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.exponential(1000.0));
  }
}
BENCHMARK(BM_RngExponential);

void BM_RngUniformInt(benchmark::State& state) {
  // The cohort scatter draw: one sub-slot of a 50 ms think tick per waking
  // user.
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.uniform_int(0, 49));
  }
}
BENCHMARK(BM_RngUniformInt);

void BM_FastZipf(benchmark::State& state) {
  // One skewed record-id draw (Arg = theta x 100): the per-operation price
  // the OLTP tier pays per transaction record. The Gray et al. construction
  // keeps this one uniform plus one pow() at every skew and table size.
  FastZipf zipf(static_cast<double>(state.range(0)) / 100.0, 2048);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FastZipf)->Arg(0)->Arg(50)->Arg(99);

void BM_TraceRecorderRecord(benchmark::State& state) {
  // Raw recorder append cost (the per-hook price when tracing is on).
  trace::TraceRecorder recorder;
  trace::TraceEvent ev;
  ev.kind = trace::EventKind::kTierSpan;
  SimTime t = 0;
  for (auto _ : state) {
    ev.time = ++t;
    recorder.record(ev);
    if (recorder.size() >= (std::size_t{1} << 22)) recorder.clear();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceRecorderRecord);

void BM_TraceRecorderRingRecord(benchmark::State& state) {
  // Bounded append (the flight ring's 2^16 events): same fast path as the
  // unbounded store, but chunk turnover rotates onto the oldest chunk
  // instead of taking a new one, so a steady-state run never grows. The rate
  // should match BM_TraceRecorderRecord without the clear() resets.
  trace::TraceRecorder recorder({std::size_t{1} << 16});
  trace::TraceEvent ev;
  ev.kind = trace::EventKind::kTierSpan;
  SimTime t = 0;
  for (auto _ : state) {
    ev.time = ++t;
    recorder.record(ev);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceRecorderRingRecord);

void BM_FlightRecorder(benchmark::State& state) {
  // One flight-recorder tick (timeline frame capture + incident bookkeeping)
  // over a synthetic 3-tier telemetry frame. The telemetry clock pushes one
  // per 50 ms window, 20x per simulated second, so even a microsecond here
  // is noise against the testbed's per-second event cost.
  trace::TraceRecorder ring({std::size_t{1} << 14});
  flightrec::FlightRecorder flight(&ring, {});
  monitor::TelemetryFrame frame;
  frame.window = msec(50);
  frame.tiers = 3;
  frame.capacity_multiplier = 0.95;
  frame.rto_backlog = 2;
  frame.resident = {12, 12, 12};
  for (auto _ : state) {
    frame.now += frame.window;
    for (std::size_t t = 0; t < frame.tiers; ++t) ++frame.resident[t];
    flight.tick(frame);
  }
  benchmark::DoNotOptimize(flight.timeline().total());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlightRecorder);

void BM_TraceEmitDetached(benchmark::State& state) {
  // The hook-site cost when tracing is compiled in but no recorder is
  // attached: must stay a null-pointer check (the zero-cost claim for every
  // run that doesn't opt in).
  trace::TraceEvent ev;
  SimTime t = 0;
  for (auto _ : state) {
    ev.time = ++t;
    trace::emit(nullptr, ev);
    benchmark::DoNotOptimize(ev);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceEmitDetached);

void BM_MetricsScrape(benchmark::State& state) {
  // One scrape of a testbed-sized registry (Arg = probe count): evaluates
  // every probe and appends it to its series. At 50 ms resolution this runs
  // 20x per simulated second, so it must stay microseconds.
  metrics::Registry registry;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    registry.probe("bench_probe", {{"i", std::to_string(i)}},
                   [i] { return static_cast<double>(i); });
  }
  SimTime now = 0;
  for (auto _ : state) {
    registry.scrape(now += msec(50));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MetricsScrape)->Arg(32);

void BM_RequestPoolChurn(benchmark::State& state) {
  // Steady-state request turnover: acquire from the warm free list, touch
  // the fields the workload generators stamp, release. After warm-up every
  // iteration must be allocation-free — the pooled slot keeps its demand
  // vector's capacity across reuse (the property the counting-allocator
  // test asserts for the full testbed).
  queueing::RequestPool pool;
  pool.set_depth(3);
  {
    // Warm a tier-3 working set so growth is amortised out of the loop.
    std::vector<queueing::Request*> warm;
    for (int i = 0; i < 512; ++i) warm.push_back(pool.acquire());
    for (queueing::Request* r : warm) {
      r->demand_us.assign({120.0, 800.0, 2400.0});
      pool.release(r);
    }
  }
  queueing::Request::Id id = 0;
  for (auto _ : state) {
    queueing::Request* r = pool.acquire();
    r->id = ++id;
    r->page_class = 1;
    r->demand_us.assign({120.0, 800.0, 2400.0});
    pool.hot().reset_stamps(r->pool_slot);
    benchmark::DoNotOptimize(r);
    pool.release(r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RequestPoolChurn);

void BM_TimingWheelRto(benchmark::State& state) {
  // The retransmission-timer population the wheel exists for: thousands of
  // ~1 s RTO timers of which 90% are cancelled before firing (the reply
  // arrived in time). Long delays park in the wheel instead of sifting
  // through the arrival heap; cancelled entries die at bucket flush or in
  // the compaction sweep without ever touching the heap.
  for (auto _ : state) {
    Simulator sim;
    int fired = 0;
    std::vector<EventHandle> handles;
    handles.reserve(4096);
    for (int i = 0; i < 4096; ++i) {
      handles.push_back(
          sim.schedule_in(sec(std::int64_t{1}) + msec(i % 2000), [&fired] { ++fired; }));
    }
    for (int i = 0; i < 4096; ++i) {
      if (i % 10 != 0) handles[static_cast<std::size_t>(i)].cancel();
    }
    sim.run_all();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_TimingWheelRto);

void BM_ClientPopulationTick(benchmark::State& state) {
  // One simulated second of a client population against a 2-tier system
  // whose capacity scales with the population (no overload, throughput =
  // N/Z). Arg0 picks the model (0 = exact per-user timers, 1 = cohort
  // batching), Arg1 the population. The exact model costs one timer event
  // per user per cycle; the cohort model costs ~20 ticks plus per-page
  // batched sends per second regardless of N — the gap is the tentpole.
  const bool cohort = state.range(0) == 1;
  const int users = static_cast<int>(state.range(1));
  const int k = users / 3500;
  Simulator sim;
  queueing::NTierSystem system(sim, {{"front", 200 * k, 4 * k}, {"back", 100 * k, 2 * k}});
  workload::RequestRouter router(system);
  workload::ClientConfig config;
  config.num_users = users;
  config.mode = cohort ? workload::ClientMode::kCohort : workload::ClientMode::kExact;
  workload::ClosedLoopClients clients(
      sim, router, workload::uniform_profile({100.0, 500.0}, sec(std::int64_t{7})),
      config, Rng(1));
  clients.start();
  sim.run_until(sec(std::int64_t{20}));  // past ramp-up, at steady state
  for (auto _ : state) {
    sim.run_for(sec(std::int64_t{1}));
  }
  benchmark::DoNotOptimize(clients.completed());
  state.counters["bytes_per_user"] = benchmark::Counter(
      static_cast<double>(clients.memory_bytes()) / static_cast<double>(users));
  state.SetItemsProcessed(state.iterations());  // simulated seconds
}
BENCHMARK(BM_ClientPopulationTick)
    ->Args({0, 3500})->Args({0, 35000})->Args({0, 350000})
    ->Args({1, 3500})->Args({1, 35000})->Args({1, 350000})
    ->Unit(benchmark::kMillisecond);

void BM_ClientPopulationScale(benchmark::State& state) {
  // The scale story (BENCH_PR9.json): the full paper testbed at its fixed
  // calibration (3-tier capacity sized for 3.5k users), asked to carry a
  // cohort population from the paper's 3.5k up to 3.5M. Above ~3.5k the
  // system saturates and the population lives in RTO backoff — the regime
  // where per-user timers would melt (3.5M heap timers) but cohort draws
  // keep the event rate pinned to service capacity plus batched arrival
  // bursts. Reported: ms per simulated second and bytes/user (population
  // state only, which stays bounded by in-flight + ledger, not N).
  const int users = static_cast<int>(state.range(0));
  testbed::TestbedConfig config;
  config.client_mode = workload::ClientMode::kCohort;
  config.num_users = users;
  testbed::RubbosTestbed bed(config);
  bed.start();
  bed.sim().run_until(sec(std::int64_t{20}));  // ramp-up + first RTO waves
  for (auto _ : state) {
    bed.sim().run_for(sec(std::int64_t{1}));
  }
  benchmark::DoNotOptimize(bed.clients().completed());
  state.counters["bytes_per_user"] = benchmark::Counter(
      static_cast<double>(bed.clients().memory_bytes()) / static_cast<double>(users));
  state.counters["pool_slots"] =
      benchmark::Counter(static_cast<double>(bed.sim().pool_slots()));
  state.SetItemsProcessed(state.iterations());  // simulated seconds
}
BENCHMARK(BM_ClientPopulationScale)
    ->Arg(3500)->Arg(35000)->Arg(350000)->Arg(3500000)
    ->Unit(benchmark::kMillisecond);

void BM_ClientPopulationScaleQuantized(benchmark::State& state) {
  // BM_ClientPopulationScale with service demands on the 100 us grid: the
  // PR 10 completion batch drain plus lazy demand sampling (a submit the
  // saturated front tier would reject skips its three RNG draws — at 3.5M
  // users the drop storm is ~1.75M rejected submissions per simulated
  // second, the dominant per-event cost of the exact-demand run). Compare
  // the 3.5M row with BM_ClientPopulationScale/3500000 from the same run.
  //
  // Iterations are pinned (see registration) because the overloaded
  // population is non-stationary: RTO backoff synchronises 3.5M users into
  // retransmit waves whose decades cost 20-40x the quiet decades between
  // them. Auto-calibration would give each variant a different iteration
  // count and therefore a different simulated window, and the window choice
  // — not the code under test — would dominate the comparison. Pinning makes
  // every variant measure the identical simulated span t = 20 s .. 50 s
  // (one wave decade plus quiet decades, one warm world per repetition).
  const int users = static_cast<int>(state.range(0));
  testbed::TestbedConfig config;
  config.client_mode = workload::ClientMode::kCohort;
  config.service_quantum_us = 100;
  config.num_users = users;
  testbed::RubbosTestbed bed(config);
  bed.start();
  bed.sim().run_until(sec(std::int64_t{20}));  // ramp-up + first RTO waves
  for (auto _ : state) {
    bed.sim().run_for(sec(std::int64_t{1}));
  }
  benchmark::DoNotOptimize(bed.clients().completed());
  state.counters["bytes_per_user"] = benchmark::Counter(
      static_cast<double>(bed.clients().memory_bytes()) / static_cast<double>(users));
  state.counters["pool_slots"] =
      benchmark::Counter(static_cast<double>(bed.sim().pool_slots()));
  state.SetItemsProcessed(state.iterations());  // simulated seconds
}
BENCHMARK(BM_ClientPopulationScaleQuantized)
    ->Arg(3500)->Arg(35000)->Arg(350000)->Arg(3500000)
    ->Iterations(30)->Unit(benchmark::kMillisecond);

void BM_FullTestbedSecond(benchmark::State& state) {
  // One simulated second of the full attacked 3500-user scenario per
  // iteration (construction amortised out by measuring a long run).
  // Arg(1) runs the same scenario with per-request tracing on; Arg(2) with
  // the metrics registry (scraped on every 50 ms telemetry tick) on; Arg(3)
  // with the always-on flight recorder (span ring + timeline + incident
  // detection).
  // Comparing each rate against Arg(0) measures the end-to-end overhead
  // (< 5% target for tracing and for the flight recorder, < 3% for
  // metrics). The testbed is driven directly — run_attack_lab would also
  // time post-hoc analysis, which is not an instrumentation cost.
  // Arg(4) is the PR 10 quantized discipline at the paper's calibration
  // scale: demands on the 100 us grid, completions draining as groups. At
  // 3.5k users completion groups are mostly singletons (~500 req/s against
  // 10k grid instants/s), so this variant documents that quantization is
  // cost-neutral where it cannot help; its payoff is population scale
  // (BM_FullTestbedSecondScale below).
  for (auto _ : state) {
    testbed::TestbedConfig config;
    config.trace = state.range(0) == 1;
    config.metrics = state.range(0) == 2;
    config.flightrec = state.range(0) == 3;
    if (state.range(0) == 4) config.service_quantum_us = 100;
    testbed::RubbosTestbed bed(config);
    bed.start();
    core::MemcaConfig memca;
    memca.enable_controller = false;
    memca.params.burst_length = msec(500);
    memca.params.burst_interval = sec(std::int64_t{2});
    memca.params.type = cloud::MemoryAttackType::kMemoryLock;
    auto attack = bed.make_attack(memca);
    attack->start();
    bed.sim().run_for(sec(std::int64_t{10}));
    attack->stop();
    benchmark::DoNotOptimize(bed.clients().completed());
  }
  state.SetItemsProcessed(state.iterations() * 10);  // simulated seconds
}
BENCHMARK(BM_FullTestbedSecond)->Arg(0)->Arg(1)->Arg(2)->Arg(3)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_FullTestbedSecondScale(benchmark::State& state) {
  // The tentpole figure: one simulated second of the full *attacked* Fig. 2
  // scenario carried by a 3.5M-user cohort population, exact demands
  // (quantum 0) vs the quantized batch drain (quantum 100 us). Construction
  // and the 20 s ramp sit outside the timed loop, like
  // BM_ClientPopulationScale — this is the marginal cost of a simulated
  // second at population scale, the number the < 10 ms/simulated-second
  // headline reads. Iterations are pinned so
  // both rows measure the identical simulated window t = 20 s .. 50 s (see
  // BM_ClientPopulationScaleQuantized for why auto-calibration would not).
  const int users = static_cast<int>(state.range(0));
  testbed::TestbedConfig config;
  config.client_mode = workload::ClientMode::kCohort;
  config.num_users = users;
  config.service_quantum_us = static_cast<std::uint32_t>(state.range(1));
  testbed::RubbosTestbed bed(config);
  bed.start();
  core::MemcaConfig memca;
  memca.enable_controller = false;
  memca.params.burst_length = msec(500);
  memca.params.burst_interval = sec(std::int64_t{2});
  memca.params.type = cloud::MemoryAttackType::kMemoryLock;
  auto attack = bed.make_attack(memca);
  attack->start();
  bed.sim().run_until(sec(std::int64_t{20}));  // ramp-up + first RTO waves
  for (auto _ : state) {
    bed.sim().run_for(sec(std::int64_t{1}));
  }
  attack->stop();
  benchmark::DoNotOptimize(bed.clients().completed());
  state.SetItemsProcessed(state.iterations());  // simulated seconds
}
BENCHMARK(BM_FullTestbedSecondScale)
    ->Args({3500000, 0})->Args({3500000, 100})
    ->Iterations(30)->Unit(benchmark::kMillisecond);

void BM_FullTestbedSecondOltp(benchmark::State& state) {
  // BM_FullTestbedSecond with the lock/CC-aware OLTP bottleneck swapped in
  // (default transaction mix, theta 0.9). The rate gap against the FIFO
  // variant is the whole price of the lock table on the hot path —
  // transaction sampling, ordered acquisition, convoy wakeups.
  for (auto _ : state) {
    testbed::TestbedConfig config;
    config.bottleneck = testbed::BottleneckKind::kOltp;
    testbed::RubbosTestbed bed(config);
    bed.start();
    core::MemcaConfig memca;
    memca.enable_controller = false;
    memca.params.burst_length = msec(500);
    memca.params.burst_interval = sec(std::int64_t{2});
    memca.params.type = cloud::MemoryAttackType::kMemoryLock;
    auto attack = bed.make_attack(memca);
    attack->start();
    bed.sim().run_for(sec(std::int64_t{10}));
    attack->stop();
    benchmark::DoNotOptimize(bed.clients().completed());
  }
  state.SetItemsProcessed(state.iterations() * 10);  // simulated seconds
}
BENCHMARK(BM_FullTestbedSecondOltp)->Unit(benchmark::kMillisecond);

void BM_SnapshotRollback(benchmark::State& state) {
  // One rollback of a full warmed testbed (metrics on) per
  // iteration, after a simulated second of divergence. This is the per-cell
  // rewind price the checkpointed sweep pays instead of re-simulating the
  // warm-up prefix; it must stay far below one simulated second's cost for
  // the reuse to win.
  testbed::TestbedConfig config;
  config.metrics = true;
  testbed::RubbosTestbed bed(config);
  bed.start();
  bed.sim().run_for(sec(std::int64_t{5}));
  bed.snapshot();
  for (auto _ : state) {
    state.PauseTiming();
    bed.sim().run_for(sec(std::int64_t{1}));
    state.ResumeTiming();
    bed.rollback();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SnapshotRollback)->Unit(benchmark::kMicrosecond);

std::vector<testbed::AttackLabConfig> warm_prefix_grid() {
  // 8 cells sharing one prefix, warm-up as long as the measurement window —
  // the regime the checkpoint targets: half of every cold cell's work is
  // the identical prefix.
  std::vector<testbed::AttackLabConfig> cells;
  for (int i = 0; i < 8; ++i) {
    testbed::AttackLabConfig config;
    config.warmup = sec(std::int64_t{15});
    config.duration = sec(std::int64_t{15});
    config.params.burst_length = msec(100 * (i + 1));
    config.params.burst_interval = sec(std::int64_t{2});
    cells.push_back(config);
  }
  return cells;
}

void BM_SweepCheckpointedWarmup(benchmark::State& state) {
  // The checkpointed path on the warm-prefix grid: each worker simulates
  // the 15 s prefix once, snapshots, and rewinds per cell — ~15 s of
  // simulation per cell plus an amortised prefix.
  for (auto _ : state) {
    benchmark::DoNotOptimize(testbed::run_attack_lab_sweep(
        warm_prefix_grid(), static_cast<int>(state.range(0))));
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_SweepCheckpointedWarmup)->Arg(1)->Arg(4)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_SweepColdWarmup(benchmark::State& state) {
  // The pre-checkpoint behaviour on the same grid: every cell re-simulates
  // the full 30 s (prefix + window) in a fresh world. The ratio to
  // BM_SweepCheckpointedWarmup at equal thread count is the checkpoint
  // speedup (>= 1.5x expected with warmup >= window).
  for (auto _ : state) {
    sweep::SweepRunner runner({static_cast<int>(state.range(0))});
    benchmark::DoNotOptimize(runner.map(
        warm_prefix_grid(),
        [](const testbed::AttackLabConfig& config) { return testbed::run_attack_lab(config); }));
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_SweepColdWarmup)->Arg(1)->Arg(4)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_SweepRunnerScaling(benchmark::State& state) {
  // An 8-cell attack-parameter grid per iteration, Arg = worker threads.
  // On a multi-core machine real time drops near-linearly up to the core
  // count while CPU time stays flat; results are bit-identical across
  // thread counts (enforced by the sweep determinism test).
  for (auto _ : state) {
    std::vector<testbed::AttackLabConfig> cells;
    for (int i = 0; i < 8; ++i) {
      testbed::AttackLabConfig config;
      config.duration = sec(std::int64_t{15});
      config.params.burst_length = msec(500);
      config.params.burst_interval = sec(std::int64_t{2});
      cells.push_back(config);
    }
    benchmark::DoNotOptimize(
        testbed::run_attack_lab_sweep(std::move(cells), static_cast<int>(state.range(0))));
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_SweepRunnerScaling)->Arg(1)->Arg(2)->Arg(4)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace memca

// Custom entry point so CI and EXPERIMENTS.md recipes can write a JSON
// snapshot with one flag: `--json <path>` (or `--json=<path>`) expands to
// google-benchmark's --benchmark_out=<path> --benchmark_out_format=json
// while keeping the human-readable console reporter on stdout. A second
// convenience flag picks the full-testbed service discipline: `--tier=fifo`
// skips the OLTP full-testbed bench, `--tier=oltp` skips the FIFO one
// (micro-benches always run); the default runs both.
//
// Every run stamps `memca_build_type` into the benchmark context, keyed off
// this translation unit's own NDEBUG (google-benchmark's `library_build_type`
// reports how the *library* was compiled, which is what let a debug-build
// snapshot masquerade as a baseline). Writing a JSON snapshot from a debug
// build is refused outright — a debug baseline poisons every later gate —
// unless MEMCA_ALLOW_DEBUG_BENCH=1 explicitly overrides for local probing.
int main(int argc, char** argv) {
#ifdef NDEBUG
  constexpr bool release_build = true;
#else
  constexpr bool release_build = false;
#endif
  benchmark::AddCustomContext("memca_build_type", release_build ? "release" : "debug");

  std::vector<std::string> args;
  args.reserve(static_cast<std::size_t>(argc) + 2);
  args.emplace_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string json_path;
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(std::strlen("--json="));
    } else if (arg == "--tier=fifo") {
      args.emplace_back("--benchmark_filter=-BM_FullTestbedSecondOltp.*");
      continue;
    } else if (arg == "--tier=oltp") {
      args.emplace_back("--benchmark_filter=-BM_FullTestbedSecond/.*");
      continue;
    } else {
      args.push_back(std::move(arg));
      continue;
    }
    if (!release_build) {
      const char* allow = std::getenv("MEMCA_ALLOW_DEBUG_BENCH");
      if (allow == nullptr || std::strcmp(allow, "1") != 0) {
        std::fprintf(stderr,
                     "perf_microbench: refusing to write a JSON snapshot from a "
                     "debug build (assertions on, optimisation uncertain — the "
                     "numbers are not comparable to release baselines).\n"
                     "Rebuild with CMAKE_BUILD_TYPE=Release, or set "
                     "MEMCA_ALLOW_DEBUG_BENCH=1 to override for local probing.\n");
        return 1;
      }
    }
    args.push_back("--benchmark_out=" + json_path);
    args.emplace_back("--benchmark_out_format=json");
  }
  std::vector<char*> argv2;
  argv2.reserve(args.size());
  for (std::string& a : args) argv2.push_back(a.data());
  int argc2 = static_cast<int>(argv2.size());
  benchmark::Initialize(&argc2, argv2.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, argv2.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
