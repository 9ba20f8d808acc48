// Incident forensics of the Fig. 2 attack scenario, from the always-on
// flight recorder alone — no full trace, no metrics registry.
//
// Runs the calibrated 3-tier EC2 scenario twice through the sweep harness —
// attack-free baseline, then the memory-lock attack (L=500 ms, I=2 s) —
// with config.flightrec on. The gate reproduces the paper's forensic story
// from bounded black-box state:
//
//   * the baseline run emits zero incidents (no false positives);
//   * the attacked run emits at least one incident whose pinned-span
//     decomposition is retransmission-dominated — the tail is manufactured
//     by drops + the 1 s TCP minimum RTO, recovered here from a 2.5 MB ring
//     instead of a full-run arena;
//   * the recovered burst-interval estimate lands near the true 2 s.
//
// Side effects: writes fig_incident_forensics.incidents.json (structured
// incident records; the CI sweep-thread gate byte-diffs this file across
// MEMCA_SWEEP_THREADS=1/2/4) and fig_incident_forensics.annotations.json
// (Perfetto annotation slices) into the working directory.
#include <fstream>
#include <iostream>

#include "common/table.h"
#include "flightrec/incident.h"
#include "testbed/attack_lab.h"

using namespace memca;

namespace {

testbed::AttackLabConfig make_cell(bool attack_enabled) {
  testbed::AttackLabConfig config;
  config.testbed.flightrec = true;
  config.params.burst_length = msec(500);
  config.params.burst_interval = sec(std::int64_t{2});
  config.params.type = cloud::MemoryAttackType::kMemoryLock;
  config.duration = 3 * kMinute;
  config.attack_enabled = attack_enabled;
  return config;
}

void print_incidents(const std::string& title, const testbed::AttackLabResult& result) {
  print_banner(std::cout, title);
  std::cout << result.incidents.size() << " incidents (" << result.incidents_dropped
            << " beyond budget), client p99 "
            << Table::num(to_millis(result.client_p99), 0) << " ms\n";
  if (result.incidents.empty()) return;
  Table table({"id", "trigger", "window (s)", "dip depth", "est. interval (s)", "drops",
               "retrans", "VLRT reqs", "retrans-dominated"});
  for (const flightrec::Incident& inc : result.incidents) {
    table.add_row({Table::num(inc.id), flightrec::to_string(inc.trigger),
                   Table::num(to_seconds(inc.window_start), 1) + "-" +
                       Table::num(to_seconds(inc.window_end), 1),
                   Table::num(inc.dip_depth, 3),
                   Table::num(to_seconds(inc.burst_interval_estimate), 2),
                   Table::num(inc.drop_count), Table::num(inc.retransmissions),
                   Table::num(inc.affected_requests),
                   Table::num(100.0 * inc.decomposition.retrans_dominated_share(), 1) + " %"});
  }
  table.print(std::cout);
}

}  // namespace

int main() {
  // Both cells share the testbed prefix, so a sweep worker warms one world
  // and rewinds it; threads come from MEMCA_SWEEP_THREADS (the CI invariance
  // gate runs 1/2/4 and byte-diffs the JSON below).
  std::vector<testbed::AttackLabConfig> cells = {make_cell(false), make_cell(true)};
  std::vector<testbed::AttackLabResult> results = testbed::run_attack_lab_sweep(cells);
  const testbed::AttackLabResult& baseline = results[0];
  const testbed::AttackLabResult& attacked = results[1];

  print_incidents("Incident forensics — baseline (no attack, 3 min, 3500 users)", baseline);
  print_incidents("Incident forensics — memory-lock attack L=500ms I=2s", attacked);

  const std::vector<std::string> tier_names = {"apache", "tomcat", "mysql"};
  {
    std::ofstream json("fig_incident_forensics.incidents.json");
    flightrec::write_incidents_json(json, attacked.incidents, tier_names);
    std::ofstream annotations("fig_incident_forensics.annotations.json");
    flightrec::write_incident_annotations(annotations, attacked.incidents);
  }
  std::cout << "\nwrote fig_incident_forensics.incidents.json and "
               "fig_incident_forensics.annotations.json (open alongside a chrome trace "
               "at https://ui.perfetto.dev)\n";

  // Gate: no baseline false positives; the attacked run yields at least one
  // incident whose VLRT decomposition is retransmission-dominated and whose
  // recovered burst interval is within 50% of the true 2 s.
  bool attacked_forensics = false;
  for (const flightrec::Incident& inc : attacked.incidents) {
    const bool retrans_dominated = inc.decomposition.tail_count > 0 &&
                                   inc.decomposition.retrans_dominated_share() > 0.5;
    const double interval_s = to_seconds(inc.burst_interval_estimate);
    const bool interval_ok = interval_s > 1.0 && interval_s < 3.0;
    if (retrans_dominated && interval_ok) attacked_forensics = true;
  }
  const bool baseline_clean = baseline.incidents.empty() && baseline.incidents_dropped == 0;
  std::cout << "baseline clean (0 incidents): " << (baseline_clean ? "PASS" : "FAIL")
            << "\nattack forensics (>=1 retransmission-dominated incident, interval "
               "estimate ~2 s): "
            << (attacked_forensics ? "PASS" : "FAIL") << "\n";
  return baseline_clean && attacked_forensics ? 0 : 1;
}
