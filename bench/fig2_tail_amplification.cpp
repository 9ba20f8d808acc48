// Figure 2 reproduction: measured tail (percentile) response time in each
// tier of the 3-tier system under the MemCA attack, in (a) Amazon EC2 and
// (b) the private cloud.
//
// Paper result: tail response time amplifies from MySQL to Tomcat to Apache
// and finally to the clients, with client p95 > 1 s and p98 > 2 s.
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "common/table.h"
#include "metrics/run_report.h"
#include "testbed/rubbos_testbed.h"

using namespace memca;

namespace {

void run_environment(testbed::CloudProfile cloud) {
  testbed::TestbedConfig config;
  config.cloud = cloud;
  config.metrics = true;
  testbed::RubbosTestbed bed(config);
  bed.start();

  core::MemcaConfig memca;
  memca.enable_controller = false;
  memca.params.burst_length = msec(500);
  memca.params.burst_interval = sec(std::int64_t{2});
  memca.params.type = cloud::MemoryAttackType::kMemoryLock;
  auto attack = bed.make_attack(memca);
  attack->start();
  bed.sim().run_for(0);  // first burst is ON: capture the degradation index
  const double d_on = bed.coupling().capacity_multiplier();
  const auto wall_start = std::chrono::steady_clock::now();
  bed.sim().run_for(3 * kMinute);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();

  print_banner(std::cout,
               std::string("Fig. 2 — percentile response time per tier, ") +
                   testbed::to_string(cloud) +
                   " (3 min, 3500 users, memory-lock L=500ms I=2s)");
  Table table({"percentile", "MySQL (ms)", "Tomcat (ms)", "Apache (ms)", "Client (ms)"});
  for (double q : {0.50, 0.75, 0.90, 0.95, 0.98, 0.99, 0.999}) {
    table.add_row({
        Table::num(q * 100.0, 1),
        Table::num(to_millis(bed.system().tier(2).residence_time().quantile(q))),
        Table::num(to_millis(bed.system().tier(1).residence_time().quantile(q))),
        Table::num(to_millis(bed.system().tier(0).residence_time().quantile(q))),
        Table::num(to_millis(bed.clients().response_times().quantile(q))),
    });
  }
  table.print(std::cout);
  std::cout << "degradation index D during bursts: " << Table::num(d_on, 3)
            << ", bursts fired: " << attack->scheduler().bursts_fired()
            << ", drops: " << bed.clients().dropped_attempts() << "\n";

  bed.finalize_metrics(attack.get());
  metrics::RunReportOptions options;
  options.scenario = std::string("fig2_tail_amplification_") + testbed::to_string(cloud);
  options.wall_seconds = wall_seconds;
  options.scrape_resolution = bed.config().fine_granularity;
  const metrics::RunReport report = metrics::build_run_report(*bed.registry(), options);
  const std::string stem = options.scenario + ".runreport";
  std::ofstream json(stem + ".json");
  metrics::write_json(json, report);
  std::ofstream md(stem + ".md");
  metrics::write_markdown(md, report);
  std::cout << "run report: " << report.submitted << " attempts, " << report.dropped
            << " drops, " << report.retransmitted << " retransmissions, p98 "
            << Table::num(to_millis(report.latency_p98), 0) << " ms -> " << stem
            << ".{json,md}\n";
}

void run_population_scale(SimTime duration) {
  // The same Fig. 2 scenario carried by a 3.5M-user population: cohort
  // clients (PR 9) plus the 100 µs service grid with batched completion
  // drains (PR 10). System capacity stays at the paper's 3.5k-user
  // calibration, so the population lives in drop/RTO backoff and the tail
  // shape is dominated by retransmission — the regime where the exact
  // per-user, exact-demand machinery would price the figure out of CI.
  testbed::TestbedConfig config;
  config.num_users = 3500000;
  config.client_mode = workload::ClientMode::kCohort;
  config.service_quantum_us = 100;
  testbed::RubbosTestbed bed(config);
  bed.start();

  core::MemcaConfig memca;
  memca.enable_controller = false;
  memca.params.burst_length = msec(500);
  memca.params.burst_interval = sec(std::int64_t{2});
  memca.params.type = cloud::MemoryAttackType::kMemoryLock;
  auto attack = bed.make_attack(memca);
  attack->start();
  bed.sim().run_for(0);
  const double d_on = bed.coupling().capacity_multiplier();
  const auto wall_start = std::chrono::steady_clock::now();
  bed.sim().run_for(duration);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();

  print_banner(std::cout,
               "Fig. 2 at population scale (3.5M users, cohort clients, 100 us "
               "service grid, " +
                   std::to_string(duration / sec(std::int64_t{1})) + " s)");
  Table table({"percentile", "MySQL (ms)", "Tomcat (ms)", "Apache (ms)", "Client (ms)"});
  for (double q : {0.50, 0.75, 0.90, 0.95, 0.98, 0.99, 0.999}) {
    table.add_row({
        Table::num(q * 100.0, 1),
        Table::num(to_millis(bed.system().tier(2).residence_time().quantile(q))),
        Table::num(to_millis(bed.system().tier(1).residence_time().quantile(q))),
        Table::num(to_millis(bed.system().tier(0).residence_time().quantile(q))),
        Table::num(to_millis(bed.clients().response_times().quantile(q))),
    });
  }
  table.print(std::cout);
  const double sim_seconds =
      static_cast<double>(duration) / static_cast<double>(sec(std::int64_t{1}));
  std::cout << "degradation index D during bursts: " << Table::num(d_on, 3)
            << ", bursts fired: " << attack->scheduler().bursts_fired()
            << ", completed: " << bed.clients().completed()
            << ", drops: " << bed.clients().dropped_attempts() << "\n"
            << "wall: " << Table::num(wall_seconds, 2) << " s ("
            << Table::num(wall_seconds * 1000.0 / sim_seconds, 2)
            << " ms per simulated second)\n";
}

}  // namespace

int main(int argc, char** argv) {
  // `--scale-seconds=N` shortens the population-scale panel's simulated
  // window (CI smoke uses a reduced duration); `--scale-seconds=0` skips it.
  SimTime scale_duration = 3 * kMinute;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string prefix = "--scale-seconds=";
    if (arg.rfind(prefix, 0) == 0) {
      scale_duration = sec(static_cast<std::int64_t>(std::atol(arg.c_str() + prefix.size())));
    } else {
      std::cerr << "usage: " << argv[0] << " [--scale-seconds=N]\n";
      return 1;
    }
  }
  run_environment(testbed::CloudProfile::kAmazonEc2);
  run_environment(testbed::CloudProfile::kPrivateCloud);
  if (scale_duration > 0) run_population_scale(scale_duration);
  std::cout << "\nShape checks (paper): client tail >= apache >= tomcat >= mysql at every\n"
               "percentile; client p95 > 1000 ms from TCP retransmission (min RTO 1 s).\n";
  return 0;
}
