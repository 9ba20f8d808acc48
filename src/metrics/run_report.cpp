#include "metrics/run_report.h"

#include <algorithm>
#include <ostream>

#include "metrics/names.h"

namespace memca::metrics {

namespace {

double series_min(const TimeSeries& series, double fallback) {
  if (series.empty()) return fallback;
  double m = series.samples().front().value;
  for (const Sample& s : series.samples()) m = std::min(m, s.value);
  return m;
}

/// Entries into a sub-1.0 window: a sample < 1 whose predecessor (or start
/// of series) was >= 1.
std::int64_t count_dips(const TimeSeries& series) {
  std::int64_t dips = 0;
  double prev = 1.0;
  for (const Sample& s : series.samples()) {
    if (s.value < 1.0 && prev >= 1.0) ++dips;
    prev = s.value;
  }
  return dips;
}

}  // namespace

RunReport build_run_report(const Registry& registry, const RunReportOptions& options) {
  RunReport report;
  report.scenario = options.scenario;
  report.wall_seconds = options.wall_seconds;
  report.scrape_resolution = options.scrape_resolution;
  report.scrapes = registry.scrapes();

  const SimTime sim_us = registry.counter_value(names::kSimTimeUs);
  report.sim_seconds = to_seconds(sim_us);

  report.events_executed = registry.counter_value(names::kEngineEventsTotal);
  report.pool_slots = registry.counter_value(names::kEnginePoolSlots);
  report.pending_high_water = registry.counter_value(names::kEnginePendingHighWater);
  if (options.wall_seconds > 0.0) {
    report.events_per_wall_sec =
        static_cast<double>(report.events_executed) / options.wall_seconds;
    report.sim_speedup = report.sim_seconds / options.wall_seconds;
  }

  report.submitted = registry.counter_value(names::kRequestsTotal, {{"event", "submitted"}});
  report.completed = registry.counter_value(names::kRequestsTotal, {{"event", "completed"}});
  report.dropped = registry.counter_value(names::kRequestsTotal, {{"event", "dropped"}});
  report.retransmitted =
      registry.counter_value(names::kRequestsTotal, {{"event", "retransmitted"}});
  report.failed = registry.counter_value(names::kRequestsTotal, {{"event", "failed"}});

  if (const LatencyHistogram* rt = registry.find_histogram(names::kClientResponseTimeUs)) {
    report.latency_count = rt->count();
    report.latency_mean_us = rt->mean();
    report.latency_p50 = rt->quantile(0.50);
    report.latency_p95 = rt->quantile(0.95);
    report.latency_p98 = rt->quantile(0.98);
    report.latency_p99 = rt->quantile(0.99);
    report.latency_max = rt->max();
  }

  report.bursts = registry.counter_value(names::kAttackBurstsTotal);
  const std::int64_t on_us = registry.counter_value(names::kAttackOnTimeUs);
  if (sim_us > 0) report.duty_cycle = static_cast<double>(on_us) / static_cast<double>(sim_us);
  if (const TimeSeries* cap = registry.series(names::kCapacityMultiplier)) {
    report.capacity_dips = count_dips(*cap);
    report.min_capacity_multiplier = series_min(*cap, 1.0);
  }

  // Flight-recorder section: present iff the incident counter was
  // registered (config.flightrec runs).
  if (!registry.family(names::kFlightrecIncidentsTotal).empty()) {
    report.flightrec = true;
    report.incidents = registry.counter_value(names::kFlightrecIncidentsTotal);
    report.incident_affected_requests =
        registry.counter_value(names::kFlightrecAffectedTotal);
  }

  report.log_warnings =
      registry.counter_value(names::kLogMessagesTotal, {{"level", "warn"}});
  report.log_errors = registry.counter_value(names::kLogMessagesTotal, {{"level", "error"}});

  // One TierReport per utilization-series tier, registration (= topology)
  // order; counters and queue series join on the tier label.
  for (std::size_t i : registry.family(names::kTierUtilization)) {
    TierReport tier;
    tier.name = registry.label_value(i, "tier");
    const Labels tier_label = {{"tier", tier.name}};
    auto event_count = [&](const char* event) {
      return registry.counter_value(names::kTierRequestsTotal,
                                    {{"tier", tier.name}, {"event", event}});
    };
    tier.offered = event_count("offered");
    tier.admitted = event_count("admitted");
    tier.rejected = event_count("rejected");
    tier.completed = event_count("completed");
    const TimeSeries& util = registry.series_at(i);
    tier.util_mean = util.mean();
    tier.util_max_native = util.max();
    const TimeSeries one_second = util.resample_mean(sec(std::int64_t{1}));
    tier.util_max_1s = one_second.max();
    tier.util_max_1min = util.resample_mean(kMinute).max();
    std::int64_t run = 0;
    for (const Sample& s : one_second.samples()) {
      if (s.value > options.autoscale_threshold) {
        ++tier.util_1s_windows_above;
        ++run;
        tier.util_1s_max_consecutive_above =
            std::max(tier.util_1s_max_consecutive_above, run);
      } else {
        run = 0;
      }
    }
    if (const TimeSeries* queue = registry.series(names::kTierQueueLength, tier_label)) {
      tier.queue_mean = queue->mean();
      tier.queue_max = queue->max();
    }
    report.tiers.push_back(std::move(tier));
  }
  return report;
}

namespace {

void put_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out << ' ';
    } else {
      out << c;
    }
  }
  out << '"';
}

}  // namespace

void write_json(std::ostream& out, const RunReport& r) {
  out << "{\n  \"scenario\": ";
  put_string(out, r.scenario);
  out << ",\n  \"sim_seconds\": " << r.sim_seconds
      << ",\n  \"wall_seconds\": " << r.wall_seconds
      << ",\n  \"scrape_resolution_us\": " << r.scrape_resolution
      << ",\n  \"scrapes\": " << r.scrapes;
  out << ",\n  \"engine\": {\"events_executed\": " << r.events_executed
      << ", \"events_per_wall_sec\": " << r.events_per_wall_sec
      << ", \"sim_speedup\": " << r.sim_speedup << ", \"pool_slots\": " << r.pool_slots
      << ", \"pending_high_water\": " << r.pending_high_water << "}";
  out << ",\n  \"requests\": {\"submitted\": " << r.submitted
      << ", \"completed\": " << r.completed << ", \"dropped\": " << r.dropped
      << ", \"retransmitted\": " << r.retransmitted << ", \"failed\": " << r.failed << "}";
  out << ",\n  \"latency_us\": {\"count\": " << r.latency_count
      << ", \"mean\": " << r.latency_mean_us << ", \"p50\": " << r.latency_p50
      << ", \"p95\": " << r.latency_p95 << ", \"p98\": " << r.latency_p98
      << ", \"p99\": " << r.latency_p99 << ", \"max\": " << r.latency_max << "}";
  out << ",\n  \"attack\": {\"bursts\": " << r.bursts << ", \"duty_cycle\": " << r.duty_cycle
      << ", \"capacity_dips\": " << r.capacity_dips
      << ", \"min_capacity_multiplier\": " << r.min_capacity_multiplier << "}";
  if (r.flightrec) {
    out << ",\n  \"flightrec\": {\"incidents\": " << r.incidents
        << ", \"affected_requests\": " << r.incident_affected_requests << "}";
  }
  out << ",\n  \"log\": {\"warnings\": " << r.log_warnings << ", \"errors\": " << r.log_errors
      << "}";
  out << ",\n  \"tiers\": [";
  for (std::size_t i = 0; i < r.tiers.size(); ++i) {
    const TierReport& t = r.tiers[i];
    if (i > 0) out << ',';
    out << "\n    {\"name\": ";
    put_string(out, t.name);
    out << ", \"offered\": " << t.offered << ", \"admitted\": " << t.admitted
        << ", \"rejected\": " << t.rejected << ", \"completed\": " << t.completed
        << ", \"util_mean\": " << t.util_mean << ", \"util_max_native\": " << t.util_max_native
        << ", \"util_max_1s\": " << t.util_max_1s << ", \"util_max_1min\": " << t.util_max_1min
        << ", \"util_1s_windows_above\": " << t.util_1s_windows_above
        << ", \"util_1s_max_consecutive_above\": " << t.util_1s_max_consecutive_above
        << ", \"queue_mean\": " << t.queue_mean << ", \"queue_max\": " << t.queue_max << "}";
  }
  out << "\n  ]\n}\n";
}

void write_markdown(std::ostream& out, const RunReport& r) {
  out << "# Run report — " << r.scenario << "\n\n";
  out << "- simulated: " << r.sim_seconds << " s";
  if (r.wall_seconds > 0.0) {
    out << " in " << r.wall_seconds << " s wall (" << r.sim_speedup << "x real time, "
        << r.events_per_wall_sec << " events/s)";
  }
  out << "\n- engine: " << r.events_executed << " events, pool " << r.pool_slots
      << " slots, queue depth high-water " << r.pending_high_water << "\n";
  out << "- requests: " << r.submitted << " submitted, " << r.completed << " completed, "
      << r.dropped << " dropped, " << r.retransmitted << " retransmitted, " << r.failed
      << " failed\n";
  out << "- client latency (ms): p50 " << to_millis(r.latency_p50) << ", p95 "
      << to_millis(r.latency_p95) << ", p98 " << to_millis(r.latency_p98) << ", p99 "
      << to_millis(r.latency_p99) << ", max " << to_millis(r.latency_max) << "\n";
  if (r.bursts > 0 || r.capacity_dips > 0) {
    out << "- attack: " << r.bursts << " bursts, duty cycle " << r.duty_cycle * 100.0
        << "%, " << r.capacity_dips << " capacity dips (min multiplier "
        << r.min_capacity_multiplier << ")\n";
  }
  if (r.flightrec) {
    out << "- flight recorder: " << r.incidents << " incidents ("
        << r.incident_affected_requests << " VLRT requests)\n";
  }
  out << "- log: " << r.log_warnings << " warnings, " << r.log_errors << " errors\n";
  if (!r.tiers.empty()) {
    out << "\n| tier | admitted | rejected | util mean | util max ("
        << to_millis(r.scrape_resolution) << " ms) | util max (1 s) | util max (1 min) | "
           "queue max |\n";
    out << "|------|----------|----------|-----------|----------------|----------------|"
           "-----------------|-----------|\n";
    for (const TierReport& t : r.tiers) {
      out << "| " << t.name << " | " << t.admitted << " | " << t.rejected << " | "
          << t.util_mean * 100.0 << "% | " << t.util_max_native * 100.0 << "% | "
          << t.util_max_1s * 100.0 << "% | " << t.util_max_1min * 100.0 << "% | "
          << t.queue_max << " |\n";
    }
  }
}

}  // namespace memca::metrics
