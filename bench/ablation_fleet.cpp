// Ablation: multi-VM adversary fleets (Section II-B's "one or a few
// adversary VMs") — how coordination mode trades damage, per-VM footprint
// and detectability.
//
//   synchronized  — lock duties compose (1 - prod(1-d)): deeper D per burst;
//   staggered     — same per-VM schedule, phase offsets of I/N: the victim
//                   sees N millibottlenecks per interval (I' = I/N) while
//                   each VM's own activity pattern is unchanged.
#include <iostream>
#include <vector>

#include "common/table.h"
#include "core/fleet.h"
#include "monitor/autoscaler.h"
#include "sweep/sweep_runner.h"
#include "testbed/rubbos_testbed.h"

using namespace memca;

namespace {

struct Row {
  int vms;
  core::FleetPhase phase;
  double d_on = 1.0;
  SimTime p95 = 0;
  double drop_pct = 0.0;
  double per_vm_duty = 0.0;
  bool autoscale = false;
};

Row run(int vms, core::FleetPhase phase) {
  testbed::RubbosTestbed bed;
  std::vector<cloud::VmId> adversaries = {bed.adversary_vm()};
  for (int i = 1; i < vms; ++i) {
    adversaries.push_back(bed.target_host().add_vm(
        {"adversary-" + std::to_string(i), 1, cloud::Placement::kPinnedPackage, 0}));
  }
  bed.start();

  core::AttackParams params;
  params.burst_length = msec(500);
  params.burst_interval = sec(std::int64_t{2});
  core::AdversaryFleet fleet(bed.sim(), bed.target_host(), adversaries, params,
                             phase, bed.fork_rng("fleet"));
  fleet.start();
  bed.sim().run_for(0);
  Row row;
  row.vms = vms;
  row.phase = phase;
  row.d_on = bed.coupling().capacity_multiplier();
  bed.sim().run_for(3 * kMinute);

  row.p95 = bed.clients().response_times().quantile(0.95);
  const double attempts = static_cast<double>(bed.clients().completed() +
                                              bed.clients().dropped_attempts());
  row.drop_pct = 100.0 * static_cast<double>(bed.clients().dropped_attempts()) / attempts;
  row.per_vm_duty = to_seconds(fleet.max_member_on_time()) / to_seconds(bed.sim().now());
  row.autoscale = monitor::evaluate_autoscaler(bed.target_cpu().series(),
                                               monitor::AutoScalerConfig{})
                      .triggered;
  fleet.stop();
  return row;
}

}  // namespace

int main() {
  print_banner(std::cout,
               "Adversary-fleet ablation (memory-lock, L=500ms, I=2s, 3-min runs)");
  Table table({"VMs", "coordination", "D(on)", "p95 (ms)", "drop %", "per-VM duty",
               "autoscale?"});
  struct Cell {
    int vms;
    core::FleetPhase phase;
  };
  const std::vector<Cell> cells = {{1, core::FleetPhase::kSynchronized},
                                   {2, core::FleetPhase::kSynchronized},
                                   {4, core::FleetPhase::kSynchronized},
                                   {2, core::FleetPhase::kStaggered},
                                   {4, core::FleetPhase::kStaggered}};
  const std::vector<Row> rows = sweep::SweepRunner().map(
      cells, [](const Cell& cell) { return run(cell.vms, cell.phase); });
  for (const Row& row : rows) {
    table.add_row({
        Table::num(std::int64_t{row.vms}),
        to_string(row.phase),
        Table::num(row.d_on, 3),
        Table::num(to_millis(row.p95), 0),
        Table::num(row.drop_pct, 1),
        Table::num(row.per_vm_duty * 100.0, 0) + "%",
        row.autoscale ? "YES" : "no",
    });
  }
  table.print(std::cout);
  std::cout
      << "\nShape checks: synchronized fleets push D to its floor (deeper damage per\n"
         "burst, same per-VM duty); staggered fleets multiply the burst frequency —\n"
         "more damage at the cost of a higher victim CPU average. Either way a\n"
         "handful of co-located VMs suffices, as the paper's threat model assumes.\n";
  return 0;
}
