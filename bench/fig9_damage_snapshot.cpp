// Figure 9 reproduction: an 8-second snapshot of a MemCA run, everything
// monitored at 50 ms granularity:
//   (a) attack bursts in the adversary VM (ON/OFF),
//   (b) transient CPU saturation of the co-located MySQL VM,
//   (c) queue propagation through the 3 tiers,
//   (d) very long (> 1 s) response times perceived by end users.
#include <chrono>
#include <fstream>
#include <iostream>

#include "common/table.h"
#include "metrics/run_report.h"
#include "testbed/rubbos_testbed.h"

using namespace memca;

int main() {
  testbed::TestbedConfig config;
  config.metrics = true;
  config.record_response_series = true;  // Fig. 9d plots the raw series
  testbed::RubbosTestbed bed(config);
  bed.start();

  core::MemcaConfig memca;
  memca.enable_controller = false;
  memca.params.burst_length = msec(500);
  memca.params.burst_interval = sec(std::int64_t{2});
  memca.params.type = cloud::MemoryAttackType::kMemoryLock;
  auto attack = bed.make_attack(memca);
  attack->start();

  // Warm up past the statistics warm-up, then capture an 8 s window.
  const SimTime window_start = sec(std::int64_t{60});
  const SimTime window_end = window_start + sec(std::int64_t{8});
  const auto wall_start = std::chrono::steady_clock::now();
  bed.sim().run_until(window_end + sec(std::int64_t{1}));
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();

  // (a) + (b) + (c): one row per 50 ms.
  print_banner(std::cout,
               "Fig. 9a-c — 8 s snapshot at 50 ms granularity (L=500ms, I=2s, memory-lock)");
  Table table({"t (s)", "attack ON", "MySQL CPU %", "Q mysql", "Q tomcat", "Q apache"});
  const auto& windows = attack->program().windows();
  auto attack_on = [&](SimTime t) {
    for (const auto& w : windows) {
      if (t >= w.start && t < w.end) return true;
    }
    return false;
  };
  const auto& cpu = bed.target_cpu().series().samples();
  for (const Sample& s : cpu) {
    if (s.time < window_start || s.time >= window_end) continue;
    if (s.time % msec(100) != 0) continue;  // print every other sample
    auto queue_at = [&](std::size_t tier) {
      const auto& q = bed.queue_gauge(tier).series().samples();
      for (const Sample& g : q) {
        if (g.time >= s.time) return g.value;
      }
      return 0.0;
    };
    table.add_row({
        Table::num(to_seconds(s.time), 2),
        attack_on(s.time) ? "##" : "",
        Table::num(s.value * 100.0, 0),
        Table::num(queue_at(2), 0),
        Table::num(queue_at(1), 0),
        Table::num(queue_at(0), 0),
    });
  }
  table.print(std::cout);

  // (d) client response times completing inside the window.
  print_banner(std::cout, "Fig. 9d — client response times completing in the window");
  Table rt_table({"t (s)", "max RT in 50ms bucket (ms)", "count"});
  const TimeSeries& rts = bed.clients().response_series();
  for (SimTime t = window_start; t < window_end; t += msec(200)) {
    const double max_rt = rts.max_in(t, t + msec(200));
    std::size_t n = 0;
    for (const Sample& s : rts.samples()) {
      if (s.time >= t && s.time < t + msec(200)) ++n;
    }
    rt_table.add_row({Table::num(to_seconds(t), 2), Table::num(max_rt / 1000.0, 1),
                      Table::num(static_cast<std::int64_t>(n))});
  }
  rt_table.print(std::cout);

  std::cout << "\nShape checks (paper): bursts every 2 s, each ~500 ms (a); MySQL CPU pins\n"
               "at 100% during and shortly after each burst, then returns to ~40-50% (b);\n"
               "queues fill MySQL -> Tomcat -> Apache within each burst and drain after\n"
               "(c); response-time spikes > 1000 ms appear in the buckets ~1 s after each\n"
               "burst's drops, from TCP retransmission (d).\n";

  bed.finalize_metrics(attack.get());
  metrics::RunReportOptions options;
  options.scenario = "fig9_damage_snapshot";
  options.wall_seconds = wall_seconds;
  options.scrape_resolution = bed.config().fine_granularity;
  const metrics::RunReport report = metrics::build_run_report(*bed.registry(), options);
  std::ofstream json("fig9_damage_snapshot.runreport.json");
  metrics::write_json(json, report);
  std::ofstream md("fig9_damage_snapshot.runreport.md");
  metrics::write_markdown(md, report);
  std::cout << "run report: " << report.bursts << " bursts (duty cycle "
            << Table::num(report.duty_cycle * 100.0, 1) << "%), " << report.dropped
            << " drops -> fig9_damage_snapshot.runreport.{json,md}\n";
  return 0;
}
