// Shared plumbing of the benchmark binaries: host clocks, order statistics,
// the result collector that prints every metric and the final JSON line,
// and the span recorder of the traced build.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#ifndef MEMCA_BENCH_TRACED
#define MEMCA_BENCH_TRACED 0
#endif

namespace memca::bench {

/// True in memca_bench_traced: spans, layer counters and allocation counts
/// are recorded. The untraced binary compiles all of it away.
inline constexpr bool kTraced = MEMCA_BENCH_TRACED != 0;

/// Host wall-clock time, seconds (steady clock).
double wall_seconds();
/// Host CPU time consumed by the whole process (all threads), seconds.
double cpu_seconds();
/// Peak resident set size of the process so far, MB (10^6 bytes).
double peak_rss_mb();

/// Host speed calibration. On a shared VM the simulator's speed drifts by
/// ±10 % over minutes, with episodes of +50 % lasting seconds (another
/// tenant on the SMT sibling or in the caches). A fixed calibration kernel
/// shaped like the simulator's hot loop (binary-heap event queue, random
/// read-modify-writes over a 1 MB table, data-dependent branches) slows by
/// the same factor, while a plain ALU loop misses the episodes. Sampling the
/// kernel before every unit and scaling the unit's measured time by
/// reference / (median of the five nearest samples) expresses it in
/// milliseconds of a reference core. The reference, 2.1 ms, is about the
/// kernel's time on the quiet 4-vCPU Xeon VM the nominal unit costs were
/// taken on.
class HostSpeed {
 public:
  /// `threads` (1 or 2) kernels run at once per sample, each timed on its
  /// own thread's CPU clock, and their mean is recorded: a workload that
  /// runs on two cores is calibrated on the same two (CPUs 0 and 1, where
  /// main() has the library pin the sweep workers). Reserves room for the
  /// samples, so single-threaded sampling inside a window whose allocations
  /// are counted adds none.
  explicit HostSpeed(int threads = 1);
  /// Runs the kernel once (identical work every time) and records its time.
  void sample();
  /// reference / median kernel time over samples i-2 .. i+2; 1 when empty.
  double scale_near(std::size_t i) const;
  /// reference / median over all samples; 1 when empty.
  double scale() const;

 private:
  int threads_;
  std::vector<double> samples_ms_;
};

/// Quantile with linear interpolation between order statistics (the same
/// rule as Python's statistics.quantiles(method="inclusive")). 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

/// Allocations and bytes requested through operator new since start. Only
/// the traced binary counts them (alloc_counter.cpp); elsewhere both are 0.
std::uint64_t allocations();
std::uint64_t allocated_bytes();

/// FNV-1a accumulator for output fingerprints.
class Fingerprint {
 public:
  void add(std::uint64_t v);
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(double v);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// 16 lowercase hex digits (the form fingerprints are printed and stored in).
std::string hex64(std::uint64_t v);

/// Everything one run reports: metrics in registration order, output checks,
/// unit counts and deterministic counters. Printed as human-readable lines
/// while the run goes, and as one JSON object at the end.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& note = "");
  /// Records an output check. `unit` is the index of the unit (cell, slice,
  /// grid) it covers, or -1 for a check over the whole run.
  void check(const std::string& name, bool ok, const std::string& detail = "", int unit = -1);
  void counter(const std::string& name, std::uint64_t value);

  void set_units(int attempted, const std::string& kind) {
    attempted_ = attempted;
    unit_kind_ = kind;
  }
  void set_fingerprint(std::uint64_t fp) { fingerprint_ = fp; }

  bool correct() const;
  int attempted() const { return attempted_; }
  int failed() const;

  void write_json(std::ostream& out) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  struct Check {
    std::string name;
    bool ok;
    std::string detail;
    int unit;
  };
  std::vector<Metric> metrics_;
  std::vector<Check> checks_;
  std::vector<std::pair<std::string, std::uint64_t>> counters_;
  int attempted_ = 0;
  std::string unit_kind_;
  std::uint64_t fingerprint_ = 0;
};

/// Writes `s` as a JSON string literal.
void write_json_string(std::ostream& out, std::string_view s);

/// One span of the traced build: a named interval on the main thread, with
/// its parent (the innermost span open when it began) and counters read from
/// public accessors when it ends. Untraced builds record nothing.
class Span {
 public:
  explicit Span(std::string_view name);
  ~Span() { finish(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches a counter read at span end (shown as an arg in the trace).
  /// `key` must be a string literal; at most six per span are kept.
  void arg(const char* key, double value);
  /// Closes the span (idempotent); returns its host CPU time in ms.
  double finish();

 private:
  int id_ = -1;
  double cpu_start_ = 0.0;
  double cpu_ms_ = 0.0;
};

/// Number of spans recorded so far.
std::size_t span_count();
/// Writes every recorded span as Chrome-trace JSON (chrome://tracing,
/// Perfetto). Returns false if the file could not be written.
bool write_chrome_trace(const std::string& path);

}  // namespace memca::bench
