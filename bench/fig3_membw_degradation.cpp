// Figure 3 reproduction: memory bandwidth degradation under the two memory
// attack types, for same-package and random-package VM placement.
//
// Paper results: (1) per-VM available bandwidth decreases as co-located VMs
// increase; (2) one locking VM degrades co-located bandwidth far more than
// one bus-saturating VM; (3) random-package placement softens both effects.
#include <iostream>

#include "cloud/host.h"
#include "common/table.h"

using namespace memca;
using cloud::Placement;

namespace {

enum class Attack { kNone, kBusSaturate, kMemoryLock };

/// Average bandwidth achieved by each of `n` measuring VMs (RAMspeed-style,
/// each pulling its single-stream maximum) with one adversary VM running
/// `attack`, under the given placement.
double per_vm_bandwidth(int n, Attack attack, Placement placement) {
  cloud::Host host(cloud::xeon_e5_2603_v3());
  std::vector<cloud::VmId> measuring;
  for (int i = 0; i < n; ++i) {
    measuring.push_back(host.add_vm({"vm" + std::to_string(i), 1, placement, 0}));
  }
  const cloud::VmId adversary = host.add_vm({"adversary", 1, placement, 0});
  const double stream = host.spec().packages[0].single_stream_gbps;
  for (cloud::VmId vm : measuring) host.set_memory_activity(vm, stream, 0.0);
  switch (attack) {
    case Attack::kNone:
      break;
    case Attack::kBusSaturate:
      host.set_memory_activity(adversary, stream, 0.0);
      break;
    case Attack::kMemoryLock:
      host.set_memory_activity(adversary, 0.0, 0.9);
      break;
  }
  double total = 0.0;
  for (cloud::VmId vm : measuring) total += host.achieved_bandwidth(vm);
  return total / static_cast<double>(n);
}

void run_placement(Placement placement, const char* label) {
  print_banner(std::cout, std::string("Fig. 3 — per-VM available bandwidth (GB/s), ") + label);
  Table table({"measuring VMs", "no attack", "bus-saturate (1 VM)", "memory-lock (1 VM)"});
  for (int n = 1; n <= 5; ++n) {
    table.add_row({
        Table::num(std::int64_t{n}),
        Table::num(per_vm_bandwidth(n, Attack::kNone, placement)),
        Table::num(per_vm_bandwidth(n, Attack::kBusSaturate, placement)),
        Table::num(per_vm_bandwidth(n, Attack::kMemoryLock, placement)),
    });
  }
  table.print(std::cout);
}

}  // namespace

int main() {
  run_placement(Placement::kPinnedPackage, "same package (6 VMs pinned to one socket)");
  run_placement(Placement::kFloating, "random package (VMs float over 2 sockets)");
  std::cout << "\nShape checks (paper): bandwidth monotonically decreases with VM count;\n"
               "memory-lock column << bus-saturate column; random-package values exceed\n"
               "same-package values at equal VM count.\n";
  return 0;
}
