// Ablation: fixed attack parameters vs the MemCA-BE feedback commander
// (Section IV-C) when the target's workload drifts mid-run.
//
// Scenario: a weakly-parameterised attack begins; at t = 2 min the site's
// population grows by 1500 users (flash crowd). The fixed attack stays
// mis-parameterised; the Kalman-filter commander escalates until the damage
// goal (p95 > 1 s) is met and then holds with the smallest footprint.
#include <iostream>

#include "common/table.h"
#include "common/windowed_quantile.h"
#include "testbed/rubbos_testbed.h"

using namespace memca;

namespace {

struct RunResult {
  SimTime p95_phase1 = 0;  // before the flash crowd
  SimTime p95_phase2 = 0;  // after
  core::AttackParams final_params;
  bool goal_met = false;
  /// Windowed client p95 sampled every 30 s (time-resolved view).
  std::vector<std::pair<SimTime, SimTime>> p95_timeline;
};

RunResult run(bool with_controller) {
  testbed::RubbosTestbed bed;
  bed.start();

  core::MemcaConfig config;
  config.enable_controller = with_controller;
  config.params.intensity = 0.5;
  config.params.burst_length = msec(250);
  config.params.burst_interval = sec(std::int64_t{3});
  config.controller.epoch = sec(std::int64_t{5});
  auto attack = bed.make_attack(config);
  attack->start();

  // Flash crowd at t = 2 min: 1500 extra users join through the same router.
  workload::ClientConfig extra_config;
  extra_config.num_users = 1500;
  extra_config.stats_warmup = bed.config().stats_warmup;
  workload::ClosedLoopClients extra(bed.sim(), bed.router(), bed.profile(), extra_config,
                                    bed.fork_rng("flash-crowd"));
  bed.sim().schedule_at(2 * kMinute, [&extra] { extra.start(); });

  // The base population's post-warmup response times over roughly the last
  // 30 s: the live SLO-dashboard view the timeline samples.
  WindowedQuantile recent(sec(std::int64_t{10}), 3);
  bed.clients().set_completion_observer([&recent](const workload::CompletionEvent& ev) {
    if (ev.post_warmup) recent.record(ev.now, ev.rt);
  });
  RunResult result;
  PeriodicTask timeline_sampler(bed.sim(), sec(std::int64_t{30}), [&] {
    result.p95_timeline.emplace_back(bed.sim().now(), recent.quantile(bed.sim().now(), 0.95));
  });

  bed.sim().run_until(2 * kMinute);
  result.p95_phase1 = bed.clients().response_times().quantile(0.95);
  bed.sim().run_until(8 * kMinute);
  result.p95_phase2 = bed.clients().response_times().quantile(0.95);
  result.final_params = attack->scheduler().params();
  if (attack->controller()) result.goal_met = attack->controller()->goal_met();
  return result;
}

}  // namespace

int main() {
  const RunResult fixed = run(false);
  const RunResult adaptive = run(true);

  print_banner(std::cout, "Fixed parameters vs Kalman feedback commander under workload drift");
  Table table({"configuration", "p95 @2min (ms)", "p95 @8min (ms)", "final R", "final L (ms)",
               "final I (s)", "goal met"});
  table.add_row({"fixed (R=0.5, L=250ms, I=3s)", Table::num(to_millis(fixed.p95_phase1), 0),
                 Table::num(to_millis(fixed.p95_phase2), 0),
                 Table::num(fixed.final_params.intensity, 2),
                 Table::num(to_millis(fixed.final_params.burst_length), 0),
                 Table::num(to_seconds(fixed.final_params.burst_interval), 1), "n/a"});
  table.add_row({"feedback commander", Table::num(to_millis(adaptive.p95_phase1), 0),
                 Table::num(to_millis(adaptive.p95_phase2), 0),
                 Table::num(adaptive.final_params.intensity, 2),
                 Table::num(to_millis(adaptive.final_params.burst_length), 0),
                 Table::num(to_seconds(adaptive.final_params.burst_interval), 1),
                 adaptive.goal_met ? "YES" : "no"});
  table.print(std::cout);

  print_banner(std::cout, "Time-resolved client p95 (30 s windows; flash crowd joins at 2 min)");
  Table timeline({"t (s)", "fixed p95 (ms)", "commander p95 (ms)"});
  for (std::size_t i = 0; i < fixed.p95_timeline.size() && i < adaptive.p95_timeline.size();
       ++i) {
    timeline.add_row({
        Table::num(to_seconds(fixed.p95_timeline[i].first), 0),
        Table::num(to_millis(fixed.p95_timeline[i].second), 0),
        Table::num(to_millis(adaptive.p95_timeline[i].second), 0),
    });
  }
  timeline.print(std::cout);

  std::cout << "\nShape checks: the fixed under-parameterised attack never reaches the 1 s\n"
               "p95 goal; the commander escalates intensity -> burst length -> frequency\n"
               "(Section IV-C ladder) without system knowledge and meets the goal.\n";
  return 0;
}
