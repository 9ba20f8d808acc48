// Quickstart: build the RUBBoS testbed, run one minute without the attack
// and one minute with MemCA, and compare per-tier percentile response times.
//
//   $ ./examples/quickstart
#include <cstdio>
#include <iostream>

#include "common/table.h"
#include "scenario.h"
#include "testbed/rubbos_testbed.h"

using namespace memca;

namespace {

void report(testbed::RubbosTestbed& bed, const char* label) {
  print_banner(std::cout, label);
  Table table({"percentile", "mysql (ms)", "tomcat (ms)", "apache (ms)", "client (ms)"});
  for (double q : {0.50, 0.90, 0.95, 0.98, 0.99}) {
    table.add_row({
        Table::num(q * 100.0, 0),
        Table::num(to_millis(bed.system().tier(2).residence_time().quantile(q))),
        Table::num(to_millis(bed.system().tier(1).residence_time().quantile(q))),
        Table::num(to_millis(bed.system().tier(0).residence_time().quantile(q))),
        Table::num(to_millis(bed.clients().response_times().quantile(q))),
    });
  }
  table.print(std::cout);
  std::printf("throughput %.1f req/s, completed %lld, drops %lld, failed %lld\n",
              bed.clients().throughput(), static_cast<long long>(bed.clients().completed()),
              static_cast<long long>(bed.clients().dropped_attempts()),
              static_cast<long long>(bed.clients().failed()));
  std::printf("avg MySQL CPU %.1f%%, max 50ms-window %.1f%%\n",
              bed.target_cpu().series().mean() * 100.0,
              bed.target_cpu().series().max() * 100.0);
}

void run(bool attack_enabled) {
  testbed::RubbosTestbed bed(examples::paper_testbed_config());
  bed.start();

  std::unique_ptr<core::MemcaAttack> attack;
  if (attack_enabled) {
    attack = bed.make_attack(examples::paper_attack_config());
    attack->start();
  }

  bed.sim().run_for(kMinute);
  report(bed, attack_enabled ? "1 minute WITH MemCA (L=500ms, I=2s, memory-lock)"
                             : "1 minute baseline (no attack)");
  if (attack) {
    std::printf("attack bursts fired: %lld, degradation index D now: %.3f\n",
                static_cast<long long>(attack->scheduler().bursts_fired()),
                bed.coupling().capacity_multiplier());
  }
}

}  // namespace

int main() {
  run(/*attack_enabled=*/false);
  run(/*attack_enabled=*/true);
  return 0;
}
