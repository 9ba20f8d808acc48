// Defender's view: which monitoring stack catches which attack?
//
// Runs MemCA and the brute-force baseline against the same deployment and
// evaluates the detection arsenal the paper discusses:
//   * CloudWatch-style auto-scaling (1-min average CPU, 85%),
//   * user-centric threshold monitors at 1 s and 50 ms granularity,
//   * CUSUM change-point detection on 1 s utilization,
//   * host-level LLC-miss periodicity detection (OProfile-style).
//
//   $ ./examples/defense_evaluation
#include <functional>
#include <iostream>

#include "cloud/llc.h"
#include "common/table.h"
#include "core/baselines.h"
#include "monitor/autoscaler.h"
#include "monitor/detector.h"
#include "testbed/rubbos_testbed.h"

using namespace memca;

namespace {

struct DetectionReport {
  std::string attack;
  SimTime p95 = 0;
  bool cloudwatch = false;
  bool threshold_1s = false;
  bool threshold_50ms = false;
  bool cusum_1s = false;
  bool llc_periodicity = false;
};

DetectionReport evaluate(const std::string& attack_name) {
  testbed::TestbedConfig testbed_config;
  testbed_config.cloud = testbed::CloudProfile::kPrivateCloud;
  testbed::RubbosTestbed bed(testbed_config);
  bed.start();

  // One clean minute first: real anomaly detectors learn their baseline
  // before the attacker shows up.
  const SimTime attack_start = kMinute;
  std::unique_ptr<core::MemcaAttack> memca_attack;
  std::unique_ptr<core::BruteForceMemoryAttack> brute;
  std::vector<cloud::ExecutionWindow> windows;
  if (attack_name == "memca (lock)" || attack_name == "memca (bus)") {
    core::MemcaConfig config;
    config.enable_controller = false;
    config.params.burst_length = msec(500);
    config.params.burst_interval = sec(std::int64_t{2});
    config.params.type = attack_name == "memca (bus)"
                             ? cloud::MemoryAttackType::kBusSaturate
                             : cloud::MemoryAttackType::kMemoryLock;
    memca_attack = bed.make_attack(config);
    bed.sim().schedule_at(attack_start, [&] { memca_attack->start(); });
  } else if (attack_name == "brute-force") {
    brute = std::make_unique<core::BruteForceMemoryAttack>(
        bed.sim(), bed.target_host(), bed.adversary_vm(),
        cloud::MemoryAttackType::kMemoryLock);
    bed.sim().schedule_at(attack_start, [&] { brute->start(); });
  }
  bed.sim().run_for(4 * kMinute);
  if (memca_attack) {
    windows = memca_attack->program().windows();
    memca_attack->stop();
  }
  if (brute) {
    windows.push_back(cloud::ExecutionWindow{attack_start, bed.sim().now()});
    brute->stop();
  }

  DetectionReport report;
  report.attack = attack_name;
  report.p95 = bed.clients().response_times().quantile(0.95);
  const TimeSeries& cpu = bed.target_cpu().series();
  report.cloudwatch =
      monitor::evaluate_autoscaler(cpu, monitor::AutoScalerConfig{}).triggered;
  monitor::AutoScalerConfig one_second;
  one_second.sampling_period = sec(std::int64_t{1});
  one_second.consecutive_periods = 2;
  report.threshold_1s = monitor::evaluate_autoscaler(cpu, one_second).triggered;
  report.threshold_50ms =
      monitor::evaluate_autoscaler(cpu, {msec(50), 0.98, 1}).breaching_windows.size() > 20;
  // Stateful detection: CUSUM on the 1-second utilization series. The mean
  // shift an ON-OFF attack causes accumulates even though no window alarms.
  report.cusum_1s = monitor::detect_cusum(cpu.resample_mean(sec(std::int64_t{1}))).detected;

  // Host-level LLC view: only meaningful when some attack ran.
  if (!windows.empty()) {
    auto overlap = [&windows](SimTime start, SimTime end) {
      SimTime total = 0;
      for (const auto& w : windows) {
        const SimTime lo = std::max(start, w.start);
        const SimTime hi = std::min(end, w.end);
        if (hi > lo) total += hi - lo;
      }
      return static_cast<double>(total) / static_cast<double>(end - start);
    };
    auto none = [](SimTime, SimTime) { return 0.0; };
    const bool cache_visible = attack_name != "memca (lock)" && attack_name != "brute-force";
    cloud::LlcModel llc;
    Rng rng = bed.fork_rng("llc-defense");
    const TimeSeries misses = llc.sample_series(
        4 * kMinute, msec(100),
        cache_visible ? std::function<double(SimTime, SimTime)>(overlap) : none,
        cache_visible ? none : std::function<double(SimTime, SimTime)>(overlap), rng);
    report.llc_periodicity = monitor::detect_periodicity(misses, msec(100), 5, 60).periodic;
  }
  return report;
}

}  // namespace

int main() {
  print_banner(std::cout, "Detection matrix: attacks (rows) x monitoring stacks (columns)");
  Table table({"attack", "p95 (ms)", "CloudWatch 1min", "threshold 1s", "fine 50ms",
               "CUSUM 1s", "LLC autocorr"});
  for (const char* name : {"none", "memca (lock)", "memca (bus)", "brute-force"}) {
    const DetectionReport r = evaluate(name);
    table.add_row({
        r.attack,
        Table::num(to_millis(r.p95), 0),
        r.cloudwatch ? "ALARM" : "-",
        r.threshold_1s ? "ALARM" : "-",
        r.threshold_50ms ? "ALARM" : "-",
        r.cusum_1s ? "ALARM" : "-",
        r.llc_periodicity ? "ALARM" : "-",
    });
  }
  table.print(std::cout);

  std::cout
      << "\nWhat a defender should take away (Section V-B):\n"
         "  * coarse provider-side monitoring (CloudWatch) misses every MemCA variant;\n"
         "  * 50 ms monitoring sees the transient saturations — but costs 1200x the\n"
         "    samples of 1-minute monitoring, fleet-wide;\n"
         "  * the LLC counters only catch the bus-saturating kernel; the memory-lock\n"
         "    kernel, which does the real damage, leaves no cache footprint;\n"
         "  * stateful detection (CUSUM on the utilization *mean*) is the one 1-second\n"
         "    monitor that catches the lock variant — it keys on the attack's average\n"
         "    impact, which the attacker cannot hide without giving up damage;\n"
         "  * no single metric + granularity combination covers all variants — the\n"
         "    paper's closing argument for why MemCA-class attacks need new defenses.\n";
  return 0;
}
