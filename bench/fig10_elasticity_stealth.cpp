// Figure 10 reproduction: MemCA stealthiness under cloud elasticity.
// The same 3-minute attacked run's MySQL CPU utilization viewed at three
// monitoring granularities:
//   (a) 1-minute (CloudWatch): flat and moderate — Auto Scaling never fires;
//   (b) 1-second: mild fluctuation, still under the 85% threshold;
//   (c) 50-millisecond: frequent transient saturations plainly visible.
#include <chrono>
#include <fstream>
#include <iostream>

#include "common/table.h"
#include "metrics/run_report.h"
#include "monitor/autoscaler.h"
#include "testbed/rubbos_testbed.h"

using namespace memca;

int main() {
  testbed::TestbedConfig config;
  config.metrics = true;
  // Always-on flight recorder: its incident counters join the run report.
  config.flightrec = true;
  testbed::RubbosTestbed bed(config);
  bed.start();
  // Checkpoint the freshly started world: the attacked run below and the
  // attack-free baseline at the end both fork from this exact state, so the
  // baseline differs *only* by the attack (same seed, same arrival stream).
  bed.snapshot();
  core::MemcaConfig memca;
  memca.enable_controller = false;
  memca.params.burst_length = msec(500);
  memca.params.burst_interval = sec(std::int64_t{2});
  auto attack = bed.make_attack(memca);
  attack->start();
  const auto wall_start = std::chrono::steady_clock::now();
  bed.sim().run_for(3 * kMinute);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();

  const TimeSeries& fine = bed.target_cpu().series();

  print_banner(std::cout, "Fig. 10a — 1-minute monitoring (CloudWatch granularity)");
  Table a({"window start", "avg CPU %"});
  const TimeSeries one_minute = fine.resample_mean(kMinute);
  for (const Sample& s : one_minute.samples()) {
    a.add_row({format_time(s.time), Table::num(s.value * 100.0, 1)});
  }
  a.print(std::cout);

  print_banner(std::cout, "Fig. 10b — 1-second monitoring (excerpt 60-75 s + summary)");
  Table b({"t (s)", "avg CPU %"});
  const TimeSeries one_second = fine.resample_mean(sec(std::int64_t{1}));
  for (const Sample& s : one_second.samples()) {
    if (s.time < sec(std::int64_t{60}) || s.time >= sec(std::int64_t{75})) continue;
    b.add_row({Table::num(to_seconds(s.time), 0), Table::num(s.value * 100.0, 1)});
  }
  b.print(std::cout);
  std::cout << "1-second series: mean " << Table::num(one_second.mean() * 100.0, 1)
            << "%, max " << Table::num(one_second.max() * 100.0, 1) << "%, windows above 85%: "
            << one_second.count_above(0.85) << " of " << one_second.size() << " (";
  for (const Sample& s : one_second.samples()) {
    if (s.value > 0.85) std::cout << " t=" << to_seconds(s.time) << "s:" << s.value * 100.0;
  }
  std::cout << " )\n";

  print_banner(std::cout, "Fig. 10c — 50 ms monitoring (excerpt 60-66 s)");
  Table c({"t (s)", "CPU %"});
  for (const Sample& s : fine.samples()) {
    if (s.time < sec(std::int64_t{60}) || s.time >= sec(std::int64_t{66})) continue;
    if (s.time % msec(200) != 0) continue;
    c.add_row({Table::num(to_seconds(s.time), 2), Table::num(s.value * 100.0, 0)});
  }
  c.print(std::cout);
  std::cout << "50 ms series: max " << Table::num(fine.max() * 100.0, 1)
            << "%, saturated (>98%) windows: " << fine.count_above(0.98) << " of "
            << fine.size() << "\n";

  print_banner(std::cout, "Auto Scaling verdicts (threshold 85% avg CPU)");
  Table v({"granularity", "consecutive periods", "triggered", "max window avg %"});
  struct Policy {
    const char* name;
    SimTime period;
    int consecutive;
  };
  for (const Policy& p : {Policy{"1 minute (CloudWatch)", kMinute, 1},
                          Policy{"1 second", sec(std::int64_t{1}), 2},
                          Policy{"50 ms", msec(50), 2}}) {
    monitor::AutoScalerConfig config;
    config.sampling_period = p.period;
    config.consecutive_periods = p.consecutive;
    const auto decision = monitor::evaluate_autoscaler(fine, config);
    v.add_row({p.name, Table::num(std::int64_t{p.consecutive}),
               decision.triggered ? "YES" : "no",
               Table::num(decision.observed.max() * 100.0, 1)});
  }
  v.print(std::cout);

  std::cout << "\nDamage context: client p95 = "
            << Table::num(to_millis(bed.clients().response_times().quantile(0.95)), 0)
            << " ms while every realistic scaling policy stays silent.\n"
            << "Shape checks (paper): (a) flat ~55-65%; (b) fluctuation bounded below the\n"
               "85% trigger; (c) transient 100% saturations every 2 s.\n";

  // Machine-readable run report, built from the scraped registry alone.
  // The blind-spot claim must reproduce from registry data without touching
  // the monitor samplers above: the target tier's scraped utilization
  // saturates at native (50 ms) resolution while its 1 s and 1 min
  // resamples never cross the 85% auto-scaling trigger.
  bed.finalize_metrics(attack.get());
  metrics::RunReportOptions options;
  options.scenario = "fig10_elasticity_stealth";
  options.wall_seconds = wall_seconds;
  options.scrape_resolution = bed.config().fine_granularity;
  const metrics::RunReport report = metrics::build_run_report(*bed.registry(), options);
  {
    std::ofstream json("fig10_elasticity_stealth.runreport.json");
    metrics::write_json(json, report);
    std::ofstream md("fig10_elasticity_stealth.runreport.md");
    metrics::write_markdown(md, report);
  }

  print_banner(std::cout, "Run report (registry-only view of the blind spot)");
  const metrics::TierReport* mysql = nullptr;
  for (const metrics::TierReport& tier : report.tiers) {
    if (tier.name == "mysql") mysql = &tier;
  }
  if (mysql == nullptr) {
    std::cout << "ERROR: run report carries no mysql tier\n";
    return 1;
  }
  std::cout << "mysql utilization max: native "
            << Table::num(mysql->util_max_native * 100.0, 1) << "%, 1 s resample "
            << Table::num(mysql->util_max_1s * 100.0, 1) << "% ("
            << mysql->util_1s_windows_above << " isolated windows above 85%, longest run "
            << mysql->util_1s_max_consecutive_above << "), 1 min resample "
            << Table::num(mysql->util_max_1min * 100.0, 1) << "%\n"
            << "attack: " << report.bursts << " bursts, duty cycle "
            << Table::num(report.duty_cycle * 100.0, 1) << "%, capacity dips "
            << report.capacity_dips << " (min multiplier "
            << Table::num(report.min_capacity_multiplier, 3) << ")\n"
            << "engine: " << report.events_executed << " events, "
            << Table::num(report.events_per_wall_sec / 1e6, 2) << " M events/s, speedup "
            << Table::num(report.sim_speedup, 0) << "x\n"
            << "wrote fig10_elasticity_stealth.runreport.{json,md}\n";
  // Tail view from the clients' bounded log-bucketed histogram.
  const LatencyHistogram& rt = bed.clients().response_times();
  std::cout << "client latency (ms): p50 " << Table::num(to_millis(rt.quantile(0.50)), 0)
            << ", p95 " << Table::num(to_millis(rt.quantile(0.95)), 0) << ", p99 "
            << Table::num(to_millis(rt.quantile(0.99)), 0) << ", p99.9 "
            << Table::num(to_millis(rt.quantile(0.999)), 0) << "\n"
            << "flight recorder: " << report.incidents << " incidents, "
            << report.incident_affected_requests << " VLRT requests pinned\n";
  // Saturation is plain at 50 ms; the 1-minute view never approaches the
  // 85% trigger; and at 1 s, breaches stay isolated (no two consecutive
  // windows), so a CloudWatch-style alarm — which fires on consecutive
  // threshold periods — stays silent at every granularity it is offered.
  const bool blind_spot = mysql->util_max_native >= 0.95 && mysql->util_max_1min < 0.85 &&
                          mysql->util_1s_max_consecutive_above < 2;
  std::cout << "blind-spot claim (native >= 95%; 1 min < 85%; no consecutive 1 s windows "
               "above 85%): "
            << (blind_spot ? "REPRODUCED" : "NOT REPRODUCED") << "\n";

  // Attack-free counterfactual: destroy the attack (its probes and
  // observers were registered after the checkpoint, so the rollback drops
  // them), rewind the world to t=0 and re-run the same 3 minutes without
  // bursts. Every delta to the tables above is attributable to the attack.
  attack.reset();
  bed.rollback();
  bed.sim().run_for(3 * kMinute);
  const TimeSeries& base = bed.target_cpu().series();
  print_banner(std::cout, "Baseline (same world via snapshot rollback, attack off)");
  std::cout << "mysql CPU: mean " << Table::num(base.mean() * 100.0, 1) << "%, max 50 ms "
            << Table::num(base.max() * 100.0, 1) << "%, saturated (>98%) windows: "
            << base.count_above(0.98) << " of " << base.size() << "\n"
            << "client p95 = "
            << Table::num(to_millis(bed.clients().response_times().quantile(0.95)), 0)
            << " ms, drops " << bed.clients().dropped_attempts()
            << " — the tail amplification above is entirely attack-induced, and the\n"
            << "periodic transient saturations all but vanish; the baseline world\n"
            << "shares the attacked run's seed and arrival stream exactly.\n";
  return blind_spot ? 0 : 1;
}
