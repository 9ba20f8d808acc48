// Benchmark entry point. One invocation runs one workload from one seed, prints
// every metric by name with its unit, checks the simulated outputs, and
// ends with one JSON line holding the metrics, the checks and the build
// provenance (benchmark/run.py builds, runs and records it).
//
//   memca_bench --workload NAME --seed N --seconds S [--expect-fingerprint HEX]
//   memca_bench_traced ... [--trace-out PATH] [--counters]
//   memca_bench[_traced] --quick        (smoke: every workload, smallest sizes)
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "report.h"
#include "workloads.h"

#ifndef NDEBUG
#error "the benchmark refuses builds without NDEBUG: configure with -DCMAKE_BUILD_TYPE=Release"
#endif

namespace memca::bench {
namespace {

int usage() {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S [--expect-fingerprint HEX]\n"
               "          [--trace-out PATH] [--counters]    (traced binary)\n"
               "       %s --quick\n"
               "workloads:",
               kTraced ? "memca_bench_traced" : "memca_bench",
               kTraced ? "memca_bench_traced" : "memca_bench");
  for (const std::string& name : workload_names()) std::fprintf(stderr, " %s", name.c_str());
  std::fprintf(stderr, " (counters mode also takes: ladder)\n");
  return 2;
}

bool parse_number(const char* text, double& out) {
  char* end = nullptr;
  out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

bool parse_u64(const char* text, int base, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(text, &end, base);
  return end != text && *end == '\0' && errno == 0 && text[0] != '-';
}

void print_json_line(const RunOptions& o, const Result& result) {
  std::cout << "{\"workload\":";
  write_json_string(std::cout, o.workload);
  std::cout << ",\"seed\":" << o.seed << ",\"seconds\":" << o.seconds
            << ",\"traced\":" << (kTraced ? "true" : "false")
            << ",\"counters_mode\":" << (o.counters ? "true" : "false")
            << ",\"build\":{\"type\":\"" << MEMCA_BENCH_BUILD_TYPE << "\",\"compiler\":\""
            << MEMCA_BENCH_COMPILER << "\",\"ndebug\":true,\"nproc\":"
            << std::thread::hardware_concurrency() << "},\"result\":";
  result.write_json(std::cout);
  std::cout << "}" << std::endl;
}

/// Runs one workload (plus, in the traced binary, the layer probes when
/// `probes` is set) and appends the metrics every run ends with.
Result run_one(const RunOptions& o, bool probes) {
  Result result;
  std::printf("%s: workload %s, seed %llu, seconds %g%s\n",
              kTraced ? "memca_bench_traced" : "memca_bench", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds,
              o.counters ? " (counters)" : (o.quick ? " (quick)" : ""));
  if (o.counters && o.workload == "ladder") {
    run_ladder_counters(o, result);
    result.set_units(1, "ladder");
    return result;
  }
  run_workload(o, result);
  result.metric("peak_rss_mb", peak_rss_mb(), "MB");
  if (kTraced && probes) run_probes(o, result);
  const double attempted = result.attempted();
  result.metric("ok_frac", (attempted - result.failed()) / attempted, "ratio",
                std::to_string(result.failed()) + " of " + std::to_string(result.attempted()) +
                    " units failed a check");
  return result;
}

int run_quick() {
  int failures = 0;
  for (const std::string& name : workload_names()) {
    RunOptions o;
    o.workload = name;
    o.quick = true;
    // The probes do not depend on the workload: run them once, at the end.
    const Result result = run_one(o, name == workload_names().back());
    if (!result.correct()) ++failures;
  }
  std::printf("quick: %d workload(s) failed a check\n", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace memca::bench

int main(int argc, char** argv) {
  using namespace memca::bench;
  // Sweep worker i runs on CPU i (the library's own knob). With the two
  // workers on fixed cores, the two-thread host-speed calibration can
  // sample exactly the cores the grid ran on.
  setenv("MEMCA_SWEEP_AFFINITY", "1", 1);
  RunOptions o;
  std::string trace_out;
  bool quick = false;
  bool has_seed = false;
  bool has_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    double number = 0.0;
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--counters" && kTraced) {
      o.counters = true;
    } else if (arg == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (arg == "--seed" && has_value && parse_u64(argv[i + 1], 10, o.seed)) {
      ++i;
      has_seed = true;
    } else if (arg == "--seconds" && has_value && parse_number(argv[i + 1], number) &&
               number > 0 && number <= 600) {
      o.seconds = number;
      ++i;
      has_seconds = true;
    } else if (arg == "--expect-fingerprint" && has_value &&
               parse_u64(argv[i + 1], 16, o.expected_fingerprint)) {
      ++i;
      o.has_expected_fingerprint = true;
    } else if (arg == "--trace-out" && has_value && kTraced) {
      trace_out = argv[++i];
    } else {
      return usage();
    }
  }
  if (quick) return run_quick();

  const bool known = o.workload == "ladder" ? o.counters : [&] {
    for (const std::string& name : workload_names()) {
      if (name == o.workload) return true;
    }
    return false;
  }();
  if (!known || !has_seed || (!has_seconds && !o.counters)) return usage();

  const Result result = run_one(o, !o.counters);
  if (!trace_out.empty()) {
    if (!write_chrome_trace(trace_out)) {
      std::fprintf(stderr, "cannot write trace to %s\n", trace_out.c_str());
      return 1;
    }
    std::printf("trace: %zu spans -> %s\n", span_count(), trace_out.c_str());
  }
  print_json_line(o, result);
  return 0;
}
