// Ablation: MemCA vs the baselines — a damage x stealth matrix.
//
//   clean          — no attack (reference);
//   memca          — transient bursts (L=500ms, I=2s, memory-lock);
//   brute-force    — the same kernel running continuously (Zhang et al.);
//   flooding       — a 500 req/s heavy-page HTTP flood.
//
// Detectors: CloudWatch-style auto-scaling (1-min avg CPU > 85%), 1-second
// threshold monitor (2 consecutive breaches), and request-rate anomaly
// (offered front-tier rate > 1.5x nominal).
#include <iostream>

#include "common/table.h"
#include "core/baselines.h"
#include "monitor/autoscaler.h"
#include "testbed/rubbos_testbed.h"

using namespace memca;

namespace {

struct Row {
  std::string name;
  SimTime p95 = 0;
  SimTime p99 = 0;
  double throughput = 0.0;
  double cpu_mean = 0.0;
  bool autoscale = false;
  bool one_second = false;
  bool rate_anomaly = false;
};

Row run(const std::string& name) {
  testbed::RubbosTestbed bed;
  bed.start();

  std::unique_ptr<core::MemcaAttack> memca_attack;
  std::unique_ptr<core::BruteForceMemoryAttack> brute;
  std::unique_ptr<core::FloodingAttack> flood;
  if (name == "memca") {
    core::MemcaConfig config;
    config.enable_controller = false;
    config.params.burst_length = msec(500);
    config.params.burst_interval = sec(std::int64_t{2});
    memca_attack = bed.make_attack(config);
    memca_attack->start();
  } else if (name == "brute-force") {
    brute = std::make_unique<core::BruteForceMemoryAttack>(
        bed.sim(), bed.target_host(), bed.adversary_vm(),
        cloud::MemoryAttackType::kMemoryLock);
    brute->start();
  } else if (name == "flooding") {
    flood = std::make_unique<core::FloodingAttack>(bed.sim(), bed.router(), 500.0,
                                                   bed.profile(), bed.fork_rng("flood"));
    flood->start();
  }
  bed.sim().run_for(3 * kMinute);

  Row row;
  row.name = name;
  row.p95 = bed.clients().response_times().quantile(0.95);
  row.p99 = bed.clients().response_times().quantile(0.99);
  row.throughput = bed.clients().throughput();
  const TimeSeries& cpu = bed.target_cpu().series();
  row.cpu_mean = cpu.mean();
  row.autoscale = monitor::evaluate_autoscaler(cpu, monitor::AutoScalerConfig{}).triggered;
  monitor::AutoScalerConfig one_second;
  one_second.sampling_period = sec(std::int64_t{1});
  one_second.consecutive_periods = 2;
  row.one_second = monitor::evaluate_autoscaler(cpu, one_second).triggered;
  const double offered =
      static_cast<double>(bed.system().tier(0).offered()) / to_seconds(bed.sim().now());
  row.rate_anomaly = offered > 1.5 * 500.0;
  return row;
}

}  // namespace

int main() {
  print_banner(std::cout, "MemCA vs baselines: damage x stealth matrix (3-minute runs)");
  Table table({"attack", "p95 (ms)", "p99 (ms)", "goodput (req/s)", "CPU mean %",
               "autoscale (1min)", "1s monitor", "rate anomaly"});
  for (const char* name : {"clean", "memca", "brute-force", "flooding"}) {
    const Row row = run(name);
    table.add_row({
        row.name,
        Table::num(to_millis(row.p95), 0),
        Table::num(to_millis(row.p99), 0),
        Table::num(row.throughput, 0),
        Table::num(row.cpu_mean * 100.0, 0),
        row.autoscale ? "TRIGGERED" : "silent",
        row.one_second ? "ALARM" : "silent",
        row.rate_anomaly ? "FLAGGED" : "silent",
    });
  }
  table.print(std::cout);
  std::cout
      << "\nShape checks (paper Sections V-B, VI): brute force does the most damage but\n"
         "trips CPU monitors at every granularity; flooding is flagged by its own\n"
         "traffic volume; MemCA reaches the 1 s p95 damage goal with every detector\n"
         "silent.\n";
  return 0;
}
