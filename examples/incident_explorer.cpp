// Drives the always-on flight recorder through a short attacked run and
// walks one incident end to end — the operator's forensic workflow on
// bounded black-box state (no full trace, no metrics registry).
//
//   ./build/examples/incident_explorer
//   -> incidents.json              structured incident records
//   -> incident_annotations.json   Perfetto slices (https://ui.perfetto.dev)
//
// The console prints the span ring's state (a TraceRecorder bounded at the
// testbed's 2^16-event ring, which wraps well before the run ends), the
// incident inventory, then drills into the worst one: the frozen
// 50 ms timeline around the window (queue depths, capacity multiplier,
// drops, RTO backlog) and the per-phase decomposition of the VLRT requests
// whose spans were pinned out of the ring before rotation evicted them.
#include <fstream>
#include <iostream>

#include "common/table.h"
#include "flightrec/incident.h"
#include "testbed/rubbos_testbed.h"

using namespace memca;

int main() {
  testbed::TestbedConfig config;
  config.flightrec = true;
  testbed::RubbosTestbed bed(config);
  bed.start();

  core::MemcaConfig memca;
  memca.enable_controller = false;
  memca.params.burst_length = msec(500);
  memca.params.burst_interval = sec(std::int64_t{2});
  memca.params.type = cloud::MemoryAttackType::kMemoryLock;
  auto attack = bed.make_attack(memca);
  attack->start();
  bed.sim().run_for(sec(std::int64_t{45}));
  attack->stop();
  // Let the quiet-close window expire so the burst train's incident closes.
  bed.sim().run_for(sec(std::int64_t{5}));
  bed.flight()->finalize();

  const flightrec::FlightRecorder& flight = *bed.flight();
  print_banner(std::cout, "Flight-recorder state (45 s attacked run + 5 s quiet)");
  std::cout << "ring: " << bed.trace()->total_recorded() << " events recorded into "
            << bed.trace()->bytes_retained() / 1024 << " KB (wrapped: "
            << (bed.trace()->wrapped() ? "yes" : "no") << ")\n"
            << "client latency (" << flight.client_latency().count() << " samples, ms): p50 "
            << Table::num(to_millis(flight.client_latency().quantile(0.50)), 0) << ", p95 "
            << Table::num(to_millis(flight.client_latency().quantile(0.95)), 0) << ", p99 "
            << Table::num(to_millis(flight.client_latency().quantile(0.99)), 0) << ", p99.9 "
            << Table::num(to_millis(flight.client_latency().quantile(0.999)), 0) << "\n"
            << "incidents: " << flight.incidents().size() << " ("
            << flight.pinned_events_total() << " spans pinned, "
            << flight.affected_requests_total() << " VLRT requests)\n";

  if (flight.incidents().empty()) {
    std::cout << "no incidents — nothing to explore\n";
    return 1;
  }

  print_banner(std::cout, "Incident inventory");
  Table inventory({"id", "trigger", "window (s)", "dip depth", "est. interval (s)",
                   "drops", "retrans", "VLRT reqs"});
  const flightrec::Incident* worst = &flight.incidents().front();
  for (const flightrec::Incident& inc : flight.incidents()) {
    if (inc.affected_requests > worst->affected_requests) worst = &inc;
    inventory.add_row({Table::num(inc.id), flightrec::to_string(inc.trigger),
                       Table::num(to_seconds(inc.window_start), 1) + "-" +
                           Table::num(to_seconds(inc.window_end), 1),
                       Table::num(inc.dip_depth, 3),
                       Table::num(to_seconds(inc.burst_interval_estimate), 2),
                       Table::num(inc.drop_count), Table::num(inc.retransmissions),
                       Table::num(inc.affected_requests)});
  }
  inventory.print(std::cout);

  print_banner(std::cout, "Drill-down: incident " + std::to_string(worst->id) +
                              " — frozen 50 ms timeline (every 4th frame)");
  Table frames({"t (s)", "D(t) min", "apache q", "tomcat q", "mysql q", "drops",
                "RTO backlog", "VLRT"});
  for (std::size_t i = 0; i < worst->frames.size(); i += 4) {
    const flightrec::TimelineFrame& f = worst->frames[i];
    frames.add_row({Table::num(to_seconds(f.start), 2), Table::num(f.capacity_min, 2),
                    Table::num(std::int64_t{f.queue_depth[0]}),
                    Table::num(std::int64_t{f.queue_depth[1]}),
                    Table::num(std::int64_t{f.queue_depth[2]}),
                    Table::num(std::int64_t{f.drops_total()}),
                    Table::num(std::int64_t{f.rto_backlog}),
                    Table::num(std::int64_t{f.vlrt_completions})});
  }
  frames.print(std::cout);

  const trace::TailSummary& d = worst->decomposition;
  std::cout << "decomposition of " << d.tail_count << " VLRT requests ("
            << d.tail_retrans_dominated << " retransmission-dominated, "
            << Table::num(100.0 * d.retrans_dominated_share(), 1) << "%): rto-wait "
            << Table::num(to_seconds(d.rto_wait_us), 1) << " s, queue-wait "
            << Table::num(to_seconds(d.queue_wait_us), 1) << " s, service "
            << Table::num(to_seconds(d.service_us), 1) << " s (degraded "
            << Table::num(to_seconds(d.degraded_us), 1) << " s), rpc-hold "
            << Table::num(to_seconds(d.rpc_hold_us), 1) << " s\n";

  {
    std::ofstream json("incidents.json");
    flightrec::write_incidents_json(json, flight.incidents(), bed.tier_names());
    std::ofstream annotations("incident_annotations.json");
    flightrec::write_incident_annotations(annotations, flight.incidents());
  }
  std::cout << "\nwrote incidents.json and incident_annotations.json — load the\n"
               "annotations at https://ui.perfetto.dev to see the incident window and\n"
               "per-dip markers on a dedicated flightrec track.\n";
  return 0;
}
