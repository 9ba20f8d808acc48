// Ablation: live elastic scaling vs the three attacks.
//
// The paper's Section V-B argues MemCA *bypasses* cloud elasticity; the
// Berkeley prediction it opens with says elasticity defeats volumetric
// DoS. This bench runs both claims against a real scale-out loop:
// CloudWatch-style policy (1-min avg CPU > 85%), 60 s provisioning delay,
// each scale-out adding one 2-vCPU replica's capacity to the MySQL tier.
#include <iostream>

#include "common/table.h"
#include "core/baselines.h"
#include "monitor/elastic.h"
#include "testbed/rubbos_testbed.h"

using namespace memca;

namespace {

struct Row {
  std::string attack;
  bool scaling;
  SimTime p95 = 0;
  SimTime p99 = 0;
  double throughput = 0.0;
  int scaleouts = 0;
  int final_workers = 0;
};

Row run(const std::string& attack_name, bool scaling) {
  testbed::RubbosTestbed bed;
  bed.start();

  std::unique_ptr<monitor::ElasticController> controller;
  if (scaling) {
    controller = std::make_unique<monitor::ElasticController>(bed.sim(), bed.system().tier(2));
    controller->start();
  }

  std::unique_ptr<core::MemcaAttack> memca_attack;
  std::unique_ptr<core::BruteForceMemoryAttack> brute;
  std::unique_ptr<core::FloodingAttack> flood;
  if (attack_name == "memca") {
    core::MemcaConfig config;
    config.enable_controller = false;
    config.params.burst_length = msec(500);
    config.params.burst_interval = sec(std::int64_t{2});
    memca_attack = bed.make_attack(config);
    memca_attack->start();
  } else if (attack_name == "brute-force") {
    brute = std::make_unique<core::BruteForceMemoryAttack>(
        bed.sim(), bed.target_host(), bed.adversary_vm(),
        cloud::MemoryAttackType::kMemoryLock);
    brute->start();
  } else if (attack_name == "flooding") {
    flood = std::make_unique<core::FloodingAttack>(bed.sim(), bed.router(), 500.0,
                                                   bed.profile(), bed.fork_rng("flood"));
    flood->start();
  }
  bed.sim().run_for(6 * kMinute);

  Row row;
  row.attack = attack_name;
  row.scaling = scaling;
  row.p95 = bed.clients().response_times().quantile(0.95);
  row.p99 = bed.clients().response_times().quantile(0.99);
  row.throughput = bed.clients().throughput();
  row.scaleouts = controller ? controller->scaleouts() : 0;
  row.final_workers = bed.system().tier(2).workers();
  return row;
}

}  // namespace

int main() {
  print_banner(std::cout,
               "Live auto-scaling (85% 1-min CPU, 60 s provisioning) vs attacks — 6-min runs");
  Table table({"attack", "scaling", "p95 (ms)", "p99 (ms)", "goodput (req/s)", "scale-outs",
               "MySQL workers"});
  for (const char* attack : {"none", "memca", "brute-force", "flooding"}) {
    for (bool scaling : {false, true}) {
      const Row row = run(attack, scaling);
      table.add_row({
          row.attack,
          row.scaling ? "on" : "off",
          Table::num(to_millis(row.p95), 0),
          Table::num(to_millis(row.p99), 0),
          Table::num(row.throughput, 0),
          Table::num(std::int64_t{row.scaleouts}),
          Table::num(std::int64_t{row.final_workers}),
      });
    }
  }
  table.print(std::cout);
  std::cout
      << "\nShape checks: flooding and brute-force trigger scale-outs, and flooding's\n"
         "damage collapses once capacity lands (Berkeley's elasticity prediction);\n"
         "MemCA's rows are identical with scaling on or off — zero scale-outs, p95\n"
         "still above 1 s. Elasticity is not a defense against transient\n"
         "cross-resource contention.\n";
  return 0;
}
