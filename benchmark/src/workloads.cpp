#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>

#include "metrics/run_report.h"
#include "monitor/autoscaler.h"
#include "testbed/rubbos_testbed.h"

namespace memca::bench {

core::MemcaConfig fig2_attack() {
  core::MemcaConfig config;
  config.enable_controller = false;
  config.params.burst_length = msec(500);
  config.params.burst_interval = sec(std::int64_t{2});
  config.params.type = cloud::MemoryAttackType::kMemoryLock;
  return config;
}

testbed::AttackLabConfig fig2_cell(std::uint64_t seed) {
  testbed::AttackLabConfig config;
  config.testbed.cloud = testbed::CloudProfile::kAmazonEc2;
  config.testbed.num_users = 3500;
  config.testbed.client_mode = workload::ClientMode::kExact;
  config.testbed.seed = seed;
  config.params = fig2_attack().params;
  config.duration = 3 * kMinute;
  return config;
}

std::vector<testbed::AttackLabConfig> sweep_grid(std::uint64_t seed) {
  static constexpr int kBurstMs[8] = {100, 200, 300, 400, 500, 600, 700, 800};
  static constexpr int kIntervalMs[8] = {1000, 1500, 2000, 3000, 4000, 5000, 6000, 8000};
  std::vector<testbed::AttackLabConfig> cells;
  for (const int burst : kBurstMs) {
    for (const int interval : kIntervalMs) {
      testbed::AttackLabConfig config = fig2_cell(seed);
      config.warmup = sec(std::int64_t{30});
      config.duration = sec(std::int64_t{60});
      // Client statistics cover the attacked window only.
      config.testbed.stats_warmup = config.warmup;
      config.params.burst_length = msec(burst);
      config.params.burst_interval = msec(interval);
      cells.push_back(config);
    }
  }
  return cells;
}

namespace {

constexpr std::uint32_t kQuantumUs = 100;
constexpr int kScaleUsers = 3'500'000;
constexpr SimTime kScaleRamp = sec(std::int64_t{20});
/// Set-ups per run; setup_s reports their median.
constexpr int kSetupRepeats = 3;
/// Warm-up cells draw seeds far from the measured cells' seed + i.
constexpr std::uint64_t kWarmupSeedOffset = 1'000'000;
/// Units whose outputs form the run fingerprint and feed the band checks.
constexpr int kCheckCells = 4;
constexpr int kCheckSlices = 30;
/// The sweep grid's Fig. 2 cell (L = 500 ms, I = 2 s) and the cells the
/// warm-equals-cold check replays.
constexpr std::size_t kGridFig2Cell = 4 * 8 + 2;
constexpr std::size_t kGridReplays[] = {0, kGridFig2Cell, 63};
constexpr int kSweepWorkers = 2;
/// The traced cell runs its window in pieces of this length, so the
/// engine's queue counters are sampled through the cell.
constexpr SimTime kSamplePiece = sec(std::int64_t{10});

// -- layer accounting (traced binary) ----------------------------------------

/// Cumulative counters read from a world's public accessors.
struct WorldCounters {
  std::uint64_t events = 0;
  std::int64_t submitted = 0;
  std::int64_t dropped = 0;
  std::int64_t completed = 0;
  std::int64_t client_completed = 0;
  std::int64_t client_drops = 0;
  std::int64_t scrapes = 0;
  std::int64_t sketch_samples = 0;
  std::int64_t ring_events = 0;
};

WorldCounters read_counters(testbed::RubbosTestbed& bed) {
  WorldCounters c;
  c.events = bed.sim().events_executed();
  c.submitted = bed.system().submitted();
  c.dropped = bed.system().dropped();
  c.completed = bed.system().completed();
  c.client_completed = bed.clients().completed();
  c.client_drops = bed.clients().dropped_attempts();
  if (bed.registry() != nullptr) c.scrapes = bed.registry()->scrapes();
  if (bed.flight() != nullptr) {
    c.sketch_samples = bed.flight()->client_latency().count();
    for (std::size_t i = 0; i < bed.system().num_tiers(); ++i) {
      c.sketch_samples += bed.flight()->tier_residence(i).count();
    }
  }
  if (bed.trace() != nullptr) c.ring_events = static_cast<std::int64_t>(bed.trace()->total_recorded());
  return c;
}

/// What the traced binary learns about the layers over the units it
/// measured; emitted as the per-layer metrics.
struct LayerTotals {
  double sim_s = 0.0;
  double host_ms = 0.0;
  WorldCounters sum;
  std::uint64_t pending_high_water = 0;
  std::uint64_t pool_slots = 0;
  std::uint64_t wheel_pending_max = 0;
  std::uint64_t cancelled_pending_max = 0;
  std::int64_t rto_backlog_max = 0;
  double bytes_per_user_max = 0.0;
  std::vector<double> instruments, pinned_events, incidents;
  std::vector<double> construct_ms, attack_start_ms, harvest_ms, analyze_ms;
  std::vector<double> finalize_ms, report_ms, report_bytes;
  // Simulated outputs, one entry per unit.
  std::vector<double> client_p95_ms, client_p98_ms, drop_frac, throughput, cpu_max_1min, d_on;
};

void sample_queues(testbed::RubbosTestbed& bed, LayerTotals& t) {
  t.wheel_pending_max = std::max<std::uint64_t>(t.wheel_pending_max, bed.sim().wheel_pending());
  t.cancelled_pending_max =
      std::max<std::uint64_t>(t.cancelled_pending_max, bed.sim().cancelled_pending());
  t.rto_backlog_max = std::max<std::int64_t>(t.rto_backlog_max, bed.clients().rto_backlog());
  t.bytes_per_user_max =
      std::max(t.bytes_per_user_max, static_cast<double>(bed.clients().memory_bytes()) /
                                         static_cast<double>(bed.config().num_users));
}

void account(LayerTotals& t, testbed::RubbosTestbed& bed, const WorldCounters& begin,
             const WorldCounters& end, double sim_s, double host_ms) {
  t.sim_s += sim_s;
  t.host_ms += host_ms;
  t.sum.events += end.events - begin.events;
  t.sum.submitted += end.submitted - begin.submitted;
  t.sum.dropped += end.dropped - begin.dropped;
  t.sum.completed += end.completed - begin.completed;
  t.sum.client_completed += end.client_completed - begin.client_completed;
  t.sum.client_drops += end.client_drops - begin.client_drops;
  t.sum.scrapes += end.scrapes - begin.scrapes;
  t.sum.sketch_samples += end.sketch_samples - begin.sketch_samples;
  t.sum.ring_events += end.ring_events - begin.ring_events;
  t.pending_high_water = std::max<std::uint64_t>(t.pending_high_water, bed.sim().pending_high_water());
  t.pool_slots = std::max<std::uint64_t>(t.pool_slots, bed.sim().pool_slots());
  sample_queues(bed, t);
}

void record_outputs(LayerTotals& t, const testbed::AttackLabResult& r) {
  t.client_p95_ms.push_back(to_millis(r.client_p95));
  t.client_p98_ms.push_back(to_millis(r.client_p98));
  t.drop_frac.push_back(r.drop_fraction);
  t.throughput.push_back(r.throughput);
  t.cpu_max_1min.push_back(r.cpu_max_1min);
  t.d_on.push_back(r.d_on);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void emit_layers(const LayerTotals& t, Result& res) {
  const double s = t.sim_s;
  const auto& c = t.sum;
  res.metric("sim.events_per_sim_s", ratio(static_cast<double>(c.events), s), "1/s");
  res.metric("sim.ns_per_event", ratio(t.host_ms * 1e6, static_cast<double>(c.events)), "ns");
  res.metric("sim.pending_high_water", static_cast<double>(t.pending_high_water), "count");
  res.metric("sim.pool_slots", static_cast<double>(t.pool_slots), "count");
  res.metric("sim.wheel_pending.max", static_cast<double>(t.wheel_pending_max), "count");
  res.metric("sim.cancelled_pending.max", static_cast<double>(t.cancelled_pending_max), "count");
  res.metric("queueing.completions_per_sim_s", ratio(static_cast<double>(c.completed), s), "1/s");
  res.metric("queueing.rejections_per_sim_s", ratio(static_cast<double>(c.dropped), s), "1/s");
  res.metric("queueing.admit_ratio",
             ratio(static_cast<double>(c.submitted - c.dropped), static_cast<double>(c.submitted)),
             "ratio");
  res.metric("workload.completions_per_sim_s", ratio(static_cast<double>(c.client_completed), s),
             "1/s");
  res.metric("workload.retransmits_per_sim_s", ratio(static_cast<double>(c.client_drops), s), "1/s");
  res.metric("workload.useful_ratio",
             ratio(static_cast<double>(c.client_completed),
                   static_cast<double>(c.client_completed + c.client_drops)),
             "ratio");
  res.metric("workload.rto_backlog.max", static_cast<double>(t.rto_backlog_max), "count");
  res.metric("workload.bytes_per_user", t.bytes_per_user_max, "B");
  res.metric("testbed.construct_ms", median(t.construct_ms), "ms");
  res.metric("testbed.harvest_ms", median(t.harvest_ms), "ms");
  res.metric("core.attack_start_ms", median(t.attack_start_ms), "ms");
  res.metric("monitor.analyze_ms", median(t.analyze_ms), "ms");
  res.metric("metrics.scrapes_per_sim_s", ratio(static_cast<double>(c.scrapes), s), "1/s");
  res.metric("metrics.instruments", mean(t.instruments), "count");
  res.metric("metrics.finalize_ms", median(t.finalize_ms), "ms");
  res.metric("metrics.report_ms", median(t.report_ms), "ms");
  res.metric("metrics.report_bytes", mean(t.report_bytes), "B");
  res.metric("flightrec.sketch_samples_per_sim_s", ratio(static_cast<double>(c.sketch_samples), s),
             "1/s");
  res.metric("flightrec.ring_events_per_sim_s", ratio(static_cast<double>(c.ring_events), s), "1/s");
  res.metric("flightrec.pinned_events", mean(t.pinned_events), "count");
  res.metric("flightrec.incidents", mean(t.incidents), "count");
  res.metric("model.client_p95_ms", mean(t.client_p95_ms), "ms");
  res.metric("model.client_p98_ms", mean(t.client_p98_ms), "ms");
  res.metric("model.drop_frac", mean(t.drop_frac), "ratio");
  res.metric("model.throughput_rps", mean(t.throughput), "1/s");
  res.metric("model.cpu_max_1min", mean(t.cpu_max_1min), "ratio");
  res.metric("model.d_on", mean(t.d_on), "ratio");
  res.counter("events", c.events);
  res.counter("pool_slots", t.pool_slots);
  res.counter("pending_high_water", t.pending_high_water);
}

// -- measured units -----------------------------------------------------------

/// Host time of each set-up and measured unit, and the simulated seconds a
/// unit covers.
struct UnitTimes {
  explicit UnitTimes(int threads = 1) : setup_speed(threads), unit_speed(threads) {}

  std::vector<double> setup_cpu_s;
  std::vector<double> cpu_ms;
  std::vector<double> wall_ms;
  double sim_s_per_unit = 0.0;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
  HostSpeed setup_speed;  // sample j is taken just before set-up j
  HostSpeed unit_speed;   // sample i is taken just before unit i
};

/// Times `fn` as one set-up (process CPU time), after one host-speed sample.
template <typename Fn>
void timed_setup(UnitTimes& times, Fn&& fn) {
  times.setup_speed.sample();
  Span s("bench.setup");
  const double c0 = cpu_seconds();
  fn();
  times.setup_cpu_s.push_back(cpu_seconds() - c0);
}

/// Times `fn` as one unit (process CPU and wall clock, plus allocations in
/// the traced binary), after one host-speed sample.
template <typename Fn>
auto timed_unit(UnitTimes& times, Fn&& fn) {
  times.unit_speed.sample();
  const std::uint64_t a0 = allocations();
  const std::uint64_t b0 = allocated_bytes();
  const double c0 = cpu_seconds();
  const double w0 = wall_seconds();
  auto out = fn();
  times.cpu_ms.push_back((cpu_seconds() - c0) * 1e3);
  times.wall_ms.push_back((wall_seconds() - w0) * 1e3);
  times.allocs += allocations() - a0;
  times.alloc_bytes += allocated_bytes() - b0;
  return out;
}

/// The end-to-end metrics a workload reports from its set-ups and units
/// (peak_rss_mb and ok_frac are added by run_one() at the end of the run).
/// Every time is scaled to the reference core (see HostSpeed).
void emit_end_to_end(Result& res, const UnitTimes& u, const char* unit) {
  std::vector<double> setup, host, wall;
  for (std::size_t j = 0; j < u.setup_cpu_s.size(); ++j) {
    setup.push_back(u.setup_cpu_s[j] * u.setup_speed.scale_near(j));
  }
  for (std::size_t i = 0; i < u.cpu_ms.size(); ++i) {
    const double scale = u.unit_speed.scale_near(i) / u.sim_s_per_unit;
    host.push_back(u.cpu_ms[i] * scale);
    wall.push_back(u.wall_ms[i] * scale);
  }
  const std::string n = std::to_string(host.size()) + " " + unit + "s";
  res.metric("setup_s", median(setup), "s",
             "median of " + std::to_string(setup.size()) + " set-ups, process CPU time");
  res.metric("host_ms_per_sim_s", median(host), "ms", "median of " + n + ", process CPU time");
  res.metric("host_ms_per_sim_s.p90", quantile(host, 0.9), "ms", "p90 of " + n);
  res.metric("wall_ms_per_sim_s", median(wall), "ms", "median of " + n + ", wall clock");
  res.metric("bench.host_speed_scale", u.unit_speed.scale(), "ratio",
             "reference core / this core, median over the run");
  if constexpr (kTraced) {
    res.metric("testbed.cell_ms.p50", median(u.cpu_ms), "ms");
    res.metric("testbed.cell_ms.p90", quantile(u.cpu_ms, 0.9), "ms");
    res.metric("testbed.cell_ms.max", quantile(u.cpu_ms, 1.0), "ms");
    const double sim_s = u.sim_s_per_unit * static_cast<double>(u.cpu_ms.size());
    res.metric("testbed.allocs_per_sim_s", ratio(static_cast<double>(u.allocs), sim_s), "1/s");
    res.metric("testbed.alloc_bytes_per_sim_s", ratio(static_cast<double>(u.alloc_bytes), sim_s),
               "B/s");
    res.counter("allocations", u.allocs);
    res.counter("alloc_bytes", u.alloc_bytes);
  }
}

int unit_count(const RunOptions& o, double nominal_unit_s, int min_units) {
  if (o.quick || o.counters) return min_units;
  return std::max(min_units, static_cast<int>(std::lround(o.seconds / nominal_unit_s)));
}

int setup_repeats(const RunOptions& o) { return o.quick || o.counters ? 1 : kSetupRepeats; }

void check_fingerprint(const RunOptions& o, Result& res, const Fingerprint& fp) {
  res.set_fingerprint(fp.value());
  if (!o.has_expected_fingerprint) return;
  res.check("fingerprint.expected", fp.value() == o.expected_fingerprint,
            "got " + hex64(fp.value()) + ", expected " + hex64(o.expected_fingerprint));
}

/// Paper shape (Fig. 2), valid for any seed: the client tail sits past the
/// 1 s minimum RTO, and the p95 tail amplifies from MySQL to the client.
/// Full 180 s cells put p95 past 1 s (the drop fraction stayed at or above
/// 5.3 % over 1,300 seeds); the sweep's 60 s windows see fewer bursts and
/// drop 3.2 % and up, so there the check reads p98.
void check_paper_shape(Result& res, const char* tail_name, SimTime client_tail,
                       SimTime client_p95, const std::vector<SimTime>& tier_p95, int unit) {
  res.check(std::string("paper.client_") + tail_name + "_over_1s",
            client_tail > sec(std::int64_t{1}),
            std::string("client ") + tail_name + " " + std::to_string(client_tail) + " us", unit);
  const bool amplifies = tier_p95.size() == 3 && client_p95 >= tier_p95[0] &&
                         tier_p95[0] >= tier_p95[1] && tier_p95[1] >= tier_p95[2];
  std::string detail = "client " + std::to_string(client_p95);
  for (const SimTime t : tier_p95) detail += " >= " + std::to_string(t);
  res.check("paper.tail_amplifies", amplifies, detail + " us", unit);
}

/// Hash of a cell's simulated outputs. Event counts are left out, so a
/// change that does the same simulation with fewer events keeps it.
void add_cell(Fingerprint& fp, const testbed::AttackLabResult& r) {
  for (const SimTime q : {r.client_p50, r.client_p95, r.client_p98, r.client_p99, r.client_p999}) {
    fp.add(std::int64_t{q});
  }
  for (const SimTime q : r.tier_p95) fp.add(std::int64_t{q});
  fp.add(r.throughput);
  fp.add(std::int64_t{r.drops});
  fp.add(r.drop_fraction);
  fp.add(r.cpu_mean);
  fp.add(r.cpu_max_50ms);
  fp.add(r.cpu_max_1s);
  fp.add(r.cpu_max_1min);
  fp.add(std::int64_t{r.autoscaler_triggered});
  fp.add(r.mean_saturation_s);
  fp.add(r.d_on);
  fp.add(std::int64_t{r.bursts});
}

std::uint64_t cell_fingerprint(const testbed::AttackLabResult& r) {
  Fingerprint fp;
  add_cell(fp, r);
  return fp.value();
}

/// The traced binary's cell: the steps of the library's run_attack_lab
/// (construct, warm-up, attack, measure, harvest) called one at a time, so
/// each layer gets its own span and counters. The fingerprint check against
/// the untraced binary, which calls run_attack_lab itself, proves that both
/// simulate and harvest the same cell.
testbed::AttackLabResult run_cell_stepwise(const testbed::AttackLabConfig& config,
                                           LayerTotals& t) {
  Span cell("testbed.cell");
  const double cpu0 = cpu_seconds();
  testbed::AttackLabResult r;
  std::unique_ptr<testbed::RubbosTestbed> bed;
  {
    Span s("testbed.construct");
    bed = std::make_unique<testbed::RubbosTestbed>(config.testbed);
    bed->start();
    t.construct_ms.push_back(s.finish());
  }
  if (config.warmup > 0) {
    Span s("sim.warmup");
    bed->sim().run_for(config.warmup);
  }
  std::unique_ptr<core::MemcaAttack> attack;
  if (config.attack_enabled) {
    Span s("core.attack_start");
    core::MemcaConfig memca;
    memca.enable_controller = false;
    memca.params = config.params;
    memca.interval_jitter = config.jitter;
    attack = bed->make_attack(memca);
    attack->start();
    bed->sim().run_for(0);
    r.d_on = bed->coupling().capacity_multiplier();
    t.attack_start_ms.push_back(s.finish());
  }
  for (SimTime done = 0; done < config.duration;) {
    const SimTime piece = std::min(kSamplePiece, config.duration - done);
    Span s("sim.run");
    bed->sim().run_for(piece);
    done += piece;
    sample_queues(*bed, t);
    s.arg("events", static_cast<double>(bed->sim().events_executed()));
    s.arg("pending", static_cast<double>(bed->sim().pending_events()));
    s.arg("wheel_pending", static_cast<double>(bed->sim().wheel_pending()));
    s.arg("rto_backlog", bed->clients().rto_backlog());
  }
  if (attack) {
    r.bursts = attack->scheduler().bursts_fired();
    attack->stop();
  }
  {
    Span s("testbed.harvest");
    const LatencyHistogram& rt = bed->clients().response_times();
    r.client_p50 = rt.quantile(0.50);
    r.client_p95 = rt.quantile(0.95);
    r.client_p98 = rt.quantile(0.98);
    r.client_p99 = rt.quantile(0.99);
    r.client_p999 = rt.quantile(0.999);
    for (std::size_t i = 0; i < bed->system().num_tiers(); ++i) {
      r.tier_p95.push_back(bed->system().tier(i).residence_time().quantile(0.95));
    }
    r.throughput = bed->clients().throughput();
    r.drops = bed->clients().dropped_attempts();
    const double attempts =
        static_cast<double>(bed->clients().completed() + bed->clients().dropped_attempts());
    r.drop_fraction = attempts > 0 ? static_cast<double>(r.drops) / attempts : 0.0;
    if (config.attack_enabled) {
      core::AttackModelInputs inputs;
      inputs.tiers = bed->model_params();
      inputs.degradation_index = r.d_on;
      inputs.burst_length = config.params.burst_length;
      inputs.burst_interval = config.params.burst_interval;
      r.model = core::evaluate_attack_model(inputs);
    }
    t.harvest_ms.push_back(s.finish());
  }
  {
    Span s("monitor.analyze");
    const TimeSeries& cpu = bed->target_cpu().series();
    r.cpu_mean = cpu.mean();
    r.cpu_max_50ms = cpu.max();
    r.cpu_max_1s = cpu.resample_mean(sec(std::int64_t{1})).max();
    r.cpu_max_1min = cpu.resample_mean(kMinute).max();
    r.autoscaler_triggered =
        monitor::evaluate_autoscaler(cpu, monitor::AutoScalerConfig{}).triggered;
    // Mean contiguous saturation run (>98% busy windows), as run_attack_lab.
    double sat_sum = 0.0;
    int sat_runs = 0;
    int run_len = 0;
    for (const Sample& sample : cpu.samples()) {
      if (sample.value > 0.98) {
        ++run_len;
      } else if (run_len > 0) {
        sat_sum += static_cast<double>(run_len) * to_seconds(bed->config().fine_granularity);
        ++sat_runs;
        run_len = 0;
      }
    }
    if (sat_runs > 0) r.mean_saturation_s = sat_sum / sat_runs;
    t.analyze_ms.push_back(s.finish());
  }
  const WorldCounters end = read_counters(*bed);
  if (bed->registry() != nullptr || bed->flight() != nullptr) {
    Span s("metrics.finalize");
    bed->finalize_metrics(attack.get());
    if (bed->flight() != nullptr) {
      r.incidents = bed->flight()->incidents();
      r.incidents_dropped = bed->flight()->incidents_dropped();
      r.client_sketch = bed->flight()->client_latency();
      t.pinned_events.push_back(static_cast<double>(bed->flight()->pinned_events_total()));
      t.incidents.push_back(static_cast<double>(bed->flight()->incidents_total()));
    }
    if (bed->registry() != nullptr) {
      t.instruments.push_back(static_cast<double>(bed->registry()->size()));
      r.registry = bed->release_metrics();
    }
    t.finalize_ms.push_back(s.finish());
  }
  account(t, *bed, WorldCounters{}, end, to_seconds(config.warmup + config.duration),
          (cpu_seconds() - cpu0) * 1e3);
  attack.reset();
  {
    Span s("testbed.teardown");
    bed.reset();
  }
  return r;
}

/// One cell through the untraced binary's path (the library's own harness)
/// or the traced binary's stepwise replica of it.
testbed::AttackLabResult run_cell(const testbed::AttackLabConfig& config, LayerTotals& t) {
  if constexpr (kTraced) {
    return run_cell_stepwise(config, t);
  } else {
    (void)t;
    return testbed::run_attack_lab(config);
  }
}

/// Builds the cell's run report and renders it as JSON; returns the bytes.
std::size_t build_report(const testbed::AttackLabResult& r, metrics::RunReport& report,
                         LayerTotals& t) {
  Span s("metrics.report");
  metrics::RunReportOptions options;
  options.scenario = "fig2-observed";
  options.scrape_resolution = msec(50);
  report = metrics::build_run_report(*r.registry, options);
  std::ostringstream json;
  metrics::write_json(json, report);
  const std::size_t bytes = json.str().size();
  t.report_ms.push_back(s.finish());
  t.report_bytes.push_back(static_cast<double>(bytes));
  return bytes;
}

// -- fig2-cells, fig2-observed, fig2-q100 --------------------------------------

enum class CellKind { kPlain, kObserved, kQuantized };

testbed::AttackLabConfig cell_config(std::uint64_t seed, CellKind kind) {
  testbed::AttackLabConfig config = fig2_cell(seed);
  if (kind == CellKind::kObserved) {
    config.testbed.metrics = true;
    config.testbed.flightrec = true;
  }
  if (kind == CellKind::kQuantized) config.testbed.service_quantum_us = kQuantumUs;
  return config;
}

/// What the band checks compare between a quantized cell and its exact twin.
struct BandStats {
  double throughput = 0.0;
  double drops = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  void add(const testbed::AttackLabResult& r) {
    throughput += r.throughput;
    drops += static_cast<double>(r.drops);
    p95 += static_cast<double>(r.client_p95);
    p99 += static_cast<double>(r.client_p99);
  }
};

void check_band(Result& res, const char* name, double got, double reference, double rel,
                double floor) {
  const double tolerance = std::max(std::abs(reference) * rel, floor);
  res.check(name, std::abs(got - reference) <= tolerance,
            std::to_string(got) + " vs exact " + std::to_string(reference) + " (tolerance " +
                std::to_string(tolerance) + ")");
}

/// The bands of the library's quantized-equivalence gate: volume within
/// 3 %, drops and tails within 15 % (with absolute floors).
void check_bands(Result& res, const BandStats& got, const BandStats& exact, int n) {
  check_band(res, "band.throughput", got.throughput, exact.throughput, 0.03, 0.0);
  check_band(res, "band.drops", got.drops, exact.drops, 0.15, 50.0 * n);
  check_band(res, "band.client_p95", got.p95, exact.p95, 0.15, 100'000.0 * n);
  check_band(res, "band.client_p99", got.p99, exact.p99, 0.15, 250'000.0 * n);
}

void run_cells(const RunOptions& o, Result& res, CellKind kind, double nominal_unit_s) {
  const int units = unit_count(o, nominal_unit_s, kCheckCells);
  LayerTotals t;
  UnitTimes times;
  times.sim_s_per_unit = to_seconds(fig2_cell(0).duration);
  // Set-up: warm-up cells, which also fill the allocator and the library's
  // lazily grown pools before timing starts.
  for (int j = 0; j < setup_repeats(o); ++j) {
    timed_setup(times, [&] {
      LayerTotals scratch;
      testbed::AttackLabResult r =
          run_cell(cell_config(o.seed + kWarmupSeedOffset + j, kind), scratch);
      if (kind == CellKind::kObserved) {
        metrics::RunReport report;
        build_report(r, report, scratch);
      }
    });
  }

  Fingerprint fp;
  BandStats band;
  std::vector<std::uint64_t> check_fps;
  for (int i = 0; i < units; ++i) {
    const testbed::AttackLabConfig config = cell_config(o.seed + static_cast<std::uint64_t>(i), kind);
    metrics::RunReport report;
    const testbed::AttackLabResult r = timed_unit(times, [&] {
      testbed::AttackLabResult out = run_cell(config, t);
      if (kind == CellKind::kObserved) build_report(out, report, t);
      return out;
    });
    check_paper_shape(res, "p95", r.client_p95, r.client_p95, r.tier_p95, i);
    if (kind == CellKind::kObserved) {
      res.check("observed.report_matches_cell",
                report.dropped == r.drops && report.bursts == r.bursts && report.completed > 0,
                "report dropped " + std::to_string(report.dropped) + " vs " +
                    std::to_string(r.drops),
                i);
      res.check("observed.incident_detected", !r.incidents.empty(), "no incident recorded", i);
    }
    if (kTraced) record_outputs(t, r);
    if (i < kCheckCells) {
      add_cell(fp, r);
      check_fps.push_back(cell_fingerprint(r));
      band.add(r);
    }
  }
  res.set_units(units, "cell");
  emit_end_to_end(res, times, "cell");

  // Twins of the check cells, outside the timed loop: the telemetry planes
  // must leave the simulated stream untouched, and the quantized grid must
  // stay inside the equivalence bands of its exact twin.
  if (kind != CellKind::kPlain) {
    Span s("bench.twins");
    BandStats exact;
    for (int i = 0; i < kCheckCells; ++i) {
      const testbed::AttackLabResult twin =
          testbed::run_attack_lab(cell_config(o.seed + static_cast<std::uint64_t>(i), CellKind::kPlain));
      if (kind == CellKind::kObserved) {
        res.check("observed.same_stream_as_plain",
                  cell_fingerprint(twin) == check_fps[static_cast<std::size_t>(i)],
                  "observed cell differs from its plain twin", i);
      }
      exact.add(twin);
    }
    if (kind == CellKind::kQuantized) check_bands(res, band, exact, kCheckCells);
  }
  check_fingerprint(o, res, fp);
  if constexpr (kTraced) emit_layers(t, res);
}

// -- scale-3m5 -----------------------------------------------------------------

struct ScaleWorld {
  std::unique_ptr<testbed::RubbosTestbed> bed;
  std::unique_ptr<core::MemcaAttack> attack;  // declared after bed: destroyed first
  double d_on = 1.0;
};

/// 3.5M cohort users on the 100 us grid, attacked from t = 0, ramped to
/// t = 20 s.
std::unique_ptr<ScaleWorld> build_scale_world(std::uint64_t seed, std::uint32_t quantum_us,
                                              LayerTotals& t) {
  auto world = std::make_unique<ScaleWorld>();
  testbed::TestbedConfig config;
  config.num_users = kScaleUsers;
  config.client_mode = workload::ClientMode::kCohort;
  config.service_quantum_us = quantum_us;
  config.seed = seed;
  {
    Span s("testbed.construct");
    world->bed = std::make_unique<testbed::RubbosTestbed>(config);
    world->bed->start();
    t.construct_ms.push_back(s.finish());
  }
  {
    Span s("core.attack_start");
    world->attack = world->bed->make_attack(fig2_attack());
    world->attack->start();
    world->bed->sim().run_for(0);
    world->d_on = world->bed->coupling().capacity_multiplier();
    t.attack_start_ms.push_back(s.finish());
  }
  Span s("sim.ramp");
  world->bed->sim().run_until(kScaleRamp);
  return world;
}

/// The scale workload's slice outputs that the fingerprint and bands read.
struct ScaleState {
  std::int64_t completed = 0, dropped = 0, failed = 0, retransmitted = 0;
  SimTime p50 = 0, p95 = 0, p99 = 0;
  double throughput = 0.0;

  static ScaleState read(testbed::RubbosTestbed& bed) {
    const workload::ClosedLoopClients& c = bed.clients();
    return {c.completed(),
            c.dropped_attempts(),
            c.failed(),
            c.retransmitted_completions(),
            c.response_times().quantile(0.50),
            c.response_times().quantile(0.95),
            c.response_times().quantile(0.99),
            c.throughput()};
  }
};

void run_scale(const RunOptions& o, Result& res) {
  const int slices = unit_count(o, 0.02, kCheckSlices);
  LayerTotals t;
  UnitTimes times;
  times.sim_s_per_unit = 1.0;
  // Set-up: construction plus the 20 s ramp. The last world built is the
  // one measured.
  std::unique_ptr<ScaleWorld> world;
  for (int j = 0; j < setup_repeats(o); ++j) {
    world.reset();  // one world at a time keeps peak RSS at one world's
    timed_setup(times, [&] { world = build_scale_world(o.seed, kQuantumUs, t); });
  }
  testbed::RubbosTestbed& bed = *world->bed;
  Fingerprint fp;
  ScaleState at_check{};
  const WorldCounters begin = read_counters(bed);
  const double cpu0 = cpu_seconds();
  for (int i = 0; i < slices; ++i) {
    timed_unit(times, [&] {
      Span s("sim.slice");
      bed.sim().run_for(sec(std::int64_t{1}));
      return 0;
    });
    if constexpr (kTraced) sample_queues(bed, t);
    const std::int64_t idle = bed.clients().idle_users();
    const std::int64_t live = bed.clients().user_slots().live();
    res.check("scale.population_conserved", idle + live == kScaleUsers,
              std::to_string(idle) + " idle + " + std::to_string(live) + " in flight", i);
    if (i < kCheckSlices) {
      const ScaleState st = ScaleState::read(bed);
      for (const std::int64_t v : {st.completed, st.dropped, st.failed, st.retransmitted,
                                   std::int64_t{st.p50}, std::int64_t{st.p99}}) {
        fp.add(v);
      }
      fp.add(bed.system().completed());
      fp.add(bed.system().dropped());
      if (i == kCheckSlices - 1) at_check = st;
    }
  }
  if constexpr (kTraced) {
    account(t, bed, begin, read_counters(bed), static_cast<double>(slices),
            (cpu_seconds() - cpu0) * 1e3);
  }
  res.set_units(slices, "slice");
  emit_end_to_end(res, times, "slice");

  {
    Span s("testbed.harvest");
    std::vector<SimTime> tier_p95;
    for (std::size_t k = 0; k < bed.system().num_tiers(); ++k) {
      tier_p95.push_back(bed.system().tier(k).residence_time().quantile(0.95));
    }
    const ScaleState end = ScaleState::read(bed);
    check_paper_shape(res, "p95", end.p95, end.p95, tier_p95, -1);
    t.harvest_ms.push_back(s.finish());
    if constexpr (kTraced) {
      t.client_p95_ms.push_back(to_millis(end.p95));
      t.client_p98_ms.push_back(to_millis(bed.clients().response_times().quantile(0.98)));
      t.drop_frac.push_back(ratio(static_cast<double>(end.dropped),
                                  static_cast<double>(end.completed + end.dropped)));
      t.throughput.push_back(end.throughput);
      t.d_on.push_back(world->d_on);
    }
  }
  {
    Span s("monitor.analyze");
    const TimeSeries& cpu = bed.target_cpu().series();
    const double cpu_max_1min = cpu.resample_mean(kMinute).max();
    monitor::evaluate_autoscaler(cpu, monitor::AutoScalerConfig{});
    t.analyze_ms.push_back(s.finish());
    if constexpr (kTraced) t.cpu_max_1min.push_back(cpu_max_1min);
  }
  world.reset();

  // Exact-demand reference over the check window, outside the timed loop:
  // the quantized grid must stay inside the equivalence bands.
  {
    Span s("bench.reference");
    LayerTotals scratch;
    std::unique_ptr<ScaleWorld> ref = build_scale_world(o.seed, 0, scratch);
    ref->bed->sim().run_until(kScaleRamp + sec(std::int64_t{kCheckSlices}));
    const ScaleState exact = ScaleState::read(*ref->bed);
    check_band(res, "band.completed", static_cast<double>(at_check.completed),
               static_cast<double>(exact.completed), 0.03, 0.0);
    check_band(res, "band.throughput", at_check.throughput, exact.throughput, 0.03, 0.0);
    check_band(res, "band.drops", static_cast<double>(at_check.dropped),
               static_cast<double>(exact.dropped), 0.15, 50.0);
    check_band(res, "band.client_p95", static_cast<double>(at_check.p95),
               static_cast<double>(exact.p95), 0.15, 100'000.0);
    check_band(res, "band.client_p99", static_cast<double>(at_check.p99),
               static_cast<double>(exact.p99), 0.15, 250'000.0);
  }
  check_fingerprint(o, res, fp);
  if constexpr (kTraced) emit_layers(t, res);
}

// -- sweep-grid ----------------------------------------------------------------

void run_sweep(const RunOptions& o, Result& res) {
  const int grids = unit_count(o, 0.75, 2);
  const std::vector<testbed::AttackLabConfig> grid = sweep_grid(o.seed);
  UnitTimes times(kSweepWorkers);
  times.sim_s_per_unit = to_seconds(grid[0].duration) * static_cast<double>(grid.size());
  // Set-up: warm-up grids (worker threads, thread-local pools, allocator).
  for (int j = 0; j < setup_repeats(o); ++j) {
    timed_setup(times, [&] { testbed::run_attack_lab_sweep(grid, kSweepWorkers); });
  }
  std::uint64_t first = 0;
  std::vector<testbed::AttackLabResult> first_results;
  for (int g = 0; g < grids; ++g) {
    std::vector<testbed::AttackLabResult> results = timed_unit(times, [&] {
      Span s("sweep.grid");
      return testbed::run_attack_lab_sweep(grid, kSweepWorkers);
    });
    Fingerprint fp;
    for (const testbed::AttackLabResult& r : results) add_cell(fp, r);
    const testbed::AttackLabResult& fig2 = results[kGridFig2Cell];
    check_paper_shape(res, "p98", fig2.client_p98, fig2.client_p95, fig2.tier_p95, g);
    if (g == 0) {
      first = fp.value();
      first_results = std::move(results);
    } else {
      res.check("sweep.repeat_bit_identical", fp.value() == first,
                "grid " + std::to_string(g) + " fingerprint " + hex64(fp.value()), g);
    }
  }
  res.set_units(grids, "grid");
  emit_end_to_end(res, times, "grid");

  // Checkpointed cells (warm world, rolled back per cell) must equal cold
  // cells that simulate their own prefix.
  LayerTotals t;
  for (const std::size_t i : kGridReplays) {
    const testbed::AttackLabResult cold = run_cell(grid[i], t);
    if (kTraced) record_outputs(t, cold);
    res.check("sweep.warm_equals_cold",
              cell_fingerprint(cold) == cell_fingerprint(first_results[i]),
              "cell " + std::to_string(i) + " differs from its cold replay", 0);
  }
  Fingerprint fp;
  for (const testbed::AttackLabResult& r : first_results) add_cell(fp, r);
  check_fingerprint(o, res, fp);
  if constexpr (kTraced) emit_layers(t, res);
}

struct Workload {
  const char* name;
  void (*run)(const RunOptions&, Result&);
};

// Nominal unit costs (host seconds per cell, slice or grid) were measured
// with the untraced Release binary on a 4-vCPU Xeon VM.
const Workload kWorkloads[] = {
    {"fig2-cells", [](const RunOptions& o, Result& r) { run_cells(o, r, CellKind::kPlain, 0.055); }},
    {"fig2-observed",
     [](const RunOptions& o, Result& r) { run_cells(o, r, CellKind::kObserved, 0.07); }},
    {"fig2-q100",
     [](const RunOptions& o, Result& r) { run_cells(o, r, CellKind::kQuantized, 0.062); }},
    {"scale-3m5", run_scale},
    {"sweep-grid", run_sweep},
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const Workload& w : kWorkloads) v.emplace_back(w.name);
    return v;
  }();
  return names;
}

bool run_workload(const RunOptions& options, Result& result) {
  for (const Workload& w : kWorkloads) {
    if (options.workload == w.name) {
      w.run(options, result);
      return true;
    }
  }
  return false;
}

}  // namespace memca::bench
