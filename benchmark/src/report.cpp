#include "report.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iterator>
#include <map>
#include <ostream>
#include <thread>

namespace memca::bench {

double wall_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water mark
  // of the image that exec'd this one (e.g. the Python launcher).
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) * 1024.0 / 1e6;  // the value is in kB
    }
  }
  return 0.0;
}

namespace {

constexpr double kReferenceKernelMs = 2.1;
constexpr std::size_t kKernelTable = std::size_t{1} << 18;  // 1 MB of u32
constexpr std::size_t kKernelEvents = 4096;
constexpr int kKernelSteps = 40000;

// Page-aligned, like run_kernel's code: a tight loop's speed depends on
// where its code and data sit, and the calibration must not move when
// unrelated code or data in the binary change size.
struct alignas(4096) KernelState {
  std::uint32_t table[kKernelTable];
  std::uint64_t heap[kKernelEvents];
};
// Static storage, one per concurrently sampling thread: sampling never
// allocates.
KernelState g_kernel[2];
volatile std::uint64_t g_kernel_sink = 0;

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// One calibration run (identical work every time); returns its thread CPU ms.
__attribute__((noinline, aligned(4096))) double run_kernel(KernelState& k) {
  std::uint64_t x = 88172645463325252ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::fill(std::begin(k.table), std::end(k.table), 0u);
  std::uint64_t* const heap = k.heap;
  for (std::size_t i = 0; i < kKernelEvents; ++i) heap[i] = next() & 0xffffff;
  std::sort(heap, heap + kKernelEvents);  // a sorted array is a min-heap

  const double c0 = thread_cpu_seconds();
  std::uint64_t acc = 0;
  for (int step = 0; step < kKernelSteps; ++step) {
    const std::uint64_t now = heap[0];
    const std::uint64_t r = next();
    std::uint32_t& cell = k.table[r & (kKernelTable - 1)];
    if ((cell ^ r) & 1) {
      acc += cell;
    } else {
      cell += static_cast<std::uint32_t>(now);
    }
    // Replace the earliest event by its successor and sift it down.
    const std::uint64_t next_time = now + (r >> 40) % 4096 + 1;
    std::size_t i = 0;
    for (std::size_t c = 1; c < kKernelEvents; c = 2 * i + 1) {
      if (c + 1 < kKernelEvents && heap[c + 1] < heap[c]) ++c;
      if (heap[c] >= next_time) break;
      heap[i] = heap[c];
      i = c;
    }
    heap[i] = next_time;
  }
  g_kernel_sink = acc;
  return (thread_cpu_seconds() - c0) * 1e3;
}

}  // namespace

HostSpeed::HostSpeed(int threads) : threads_(threads) { samples_ms_.reserve(1024); }

void HostSpeed::sample() {
  if (threads_ < 2) {
    samples_ms_.push_back(run_kernel(g_kernel[0]));
    return;
  }
  // Two kernels at once on CPUs 0 and 1, where the library pins sweep
  // workers 0 and 1 under MEMCA_SWEEP_AFFINITY: calibration and workload
  // see the same two cores.
  cpu_set_t saved;
  pthread_getaffinity_np(pthread_self(), sizeof saved, &saved);
  auto pin = [](int cpu) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    pthread_setaffinity_np(pthread_self(), sizeof set, &set);
  };
  double helper_ms = 0.0;
  std::thread helper([&] {
    pin(1);
    helper_ms = run_kernel(g_kernel[1]);
  });
  pin(0);
  const double own_ms = run_kernel(g_kernel[0]);
  helper.join();
  pthread_setaffinity_np(pthread_self(), sizeof saved, &saved);
  samples_ms_.push_back((own_ms + helper_ms) / 2.0);
}

double HostSpeed::scale_near(std::size_t i) const {
  if (samples_ms_.empty()) return 1.0;
  const std::size_t lo = i >= 2 ? i - 2 : 0;
  const std::size_t hi = std::min(samples_ms_.size(), i + 3);
  if (lo >= hi) return scale();
  return kReferenceKernelMs /
         median(std::vector<double>(samples_ms_.begin() + static_cast<std::ptrdiff_t>(lo),
                                    samples_ms_.begin() + static_cast<std::ptrdiff_t>(hi)));
}

double HostSpeed::scale() const {
  return samples_ms_.empty() ? 1.0 : kReferenceKernelMs / median(samples_ms_);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

#if !MEMCA_BENCH_TRACED
std::uint64_t allocations() { return 0; }
std::uint64_t allocated_bytes() { return 0; }
#endif

void Fingerprint::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= 1099511628211ull;
  }
}

void Fingerprint::add(double v) { add(std::bit_cast<std::uint64_t>(v)); }

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void Result::metric(const std::string& name, double value, const std::string& unit,
                    const std::string& note) {
  metrics_.push_back({name, value, unit});
  std::printf("  %-44s %14.6g %-6s%s%s\n", name.c_str(), value, unit.c_str(),
              note.empty() ? "" : "  ", note.c_str());
}

void Result::check(const std::string& name, bool ok, const std::string& detail, int unit) {
  checks_.push_back({name, ok, detail, unit});
  if (!ok) {
    std::printf("CHECK FAILED %s%s: %s\n", name.c_str(),
                unit >= 0 ? (" (unit " + std::to_string(unit) + ")").c_str() : "",
                detail.c_str());
  }
}

void Result::counter(const std::string& name, std::uint64_t value) {
  counters_.emplace_back(name, value);
}

bool Result::correct() const {
  return std::all_of(checks_.begin(), checks_.end(), [](const Check& c) { return c.ok; });
}

int Result::failed() const {
  std::vector<int> failed_units;
  int run_level = 0;
  for (const Check& c : checks_) {
    if (c.ok) continue;
    if (c.unit < 0) {
      ++run_level;
    } else {
      failed_units.push_back(c.unit);
    }
  }
  std::sort(failed_units.begin(), failed_units.end());
  const auto distinct = std::unique(failed_units.begin(), failed_units.end()) - failed_units.begin();
  return std::min(attempted_, static_cast<int>(distinct) + run_level);
}

void write_json_string(std::ostream& out, std::string_view s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned char>(c));
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

namespace {

void write_number(std::ostream& out, double v) {
  if (!std::isfinite(v)) {
    out << "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out << buf;
}

}  // namespace

void Result::write_json(std::ostream& out) const {
  out << "{\"correct\":" << (correct() ? "true" : "false") << ",\"attempted\":" << attempted_
      << ",\"failed\":" << failed() << ",\"unit\":";
  write_json_string(out, unit_kind_);
  out << ",\"fingerprint\":\"" << hex64(fingerprint_) << "\",\"metrics\":{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out << ',';
    write_json_string(out, metrics_[i].name);
    out << ":{\"value\":";
    write_number(out, metrics_[i].value);
    out << ",\"unit\":";
    write_json_string(out, metrics_[i].unit);
    out << '}';
  }
  // Checks are summarised per name: one line per check kind, with the first
  // failure's detail, keeps the line short on runs of hundreds of units.
  struct Tally {
    int passed = 0;
    int failed = 0;
    std::string first_failure;
  };
  std::vector<std::string> order;
  std::map<std::string, Tally> tallies;
  for (const Check& c : checks_) {
    auto [it, inserted] = tallies.try_emplace(c.name);
    if (inserted) order.push_back(c.name);
    if (c.ok) {
      ++it->second.passed;
    } else if (it->second.failed++ == 0) {
      it->second.first_failure = c.detail;
    }
  }
  out << "},\"checks\":[";
  for (std::size_t i = 0; i < order.size(); ++i) {
    const Tally& t = tallies[order[i]];
    if (i > 0) out << ',';
    out << "{\"name\":";
    write_json_string(out, order[i]);
    out << ",\"passed\":" << t.passed << ",\"failed\":" << t.failed;
    if (t.failed > 0) {
      out << ",\"first_failure\":";
      write_json_string(out, t.first_failure);
    }
    out << '}';
  }
  out << "],\"counters\":{";
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    if (i > 0) out << ',';
    write_json_string(out, counters_[i].first);
    out << ':' << counters_[i].second;
  }
  out << "}}";
}

// -- spans --------------------------------------------------------------------

namespace {

// Records are fixed-size and pre-reserved so that recording a span does not
// allocate: the traced binary's allocation counts must be the simulator's.
struct SpanRecord {
  static constexpr std::size_t kNameSize = 48;
  static constexpr std::size_t kMaxArgs = 6;
  char name[kNameSize] = {};
  int parent = -1;
  double wall_start = 0.0;
  double wall_end = 0.0;
  double cpu_ms = 0.0;
  std::size_t num_args = 0;
  std::pair<const char*, double> args[kMaxArgs] = {};
};

std::vector<SpanRecord>& spans() {
  static std::vector<SpanRecord> records = [] {
    std::vector<SpanRecord> v;
    if (kTraced) v.reserve(std::size_t{1} << 15);
    return v;
  }();
  return records;
}

std::vector<int>& open_spans() {
  static std::vector<int> stack = [] {
    std::vector<int> v;
    v.reserve(64);
    return v;
  }();
  return stack;
}

const double kTraceEpoch = wall_seconds();

}  // namespace

Span::Span(std::string_view name) {
  if constexpr (kTraced) {
    auto& records = spans();
    id_ = static_cast<int>(records.size());
    SpanRecord& record = records.emplace_back();
    name.copy(record.name, SpanRecord::kNameSize - 1);
    record.parent = open_spans().empty() ? -1 : open_spans().back();
    record.wall_start = wall_seconds();
    open_spans().push_back(id_);
    cpu_start_ = cpu_seconds();
  } else {
    (void)name;
  }
}

void Span::arg(const char* key, double value) {
  if constexpr (kTraced) {
    if (id_ < 0) return;
    SpanRecord& record = spans()[static_cast<std::size_t>(id_)];
    if (record.num_args < SpanRecord::kMaxArgs) record.args[record.num_args++] = {key, value};
  } else {
    (void)key;
    (void)value;
  }
}

double Span::finish() {
  if constexpr (kTraced) {
    if (id_ < 0) return cpu_ms_;
    cpu_ms_ = (cpu_seconds() - cpu_start_) * 1e3;
    SpanRecord& record = spans()[static_cast<std::size_t>(id_)];
    record.wall_end = wall_seconds();
    record.cpu_ms = cpu_ms_;
    // Spans nest strictly (RAII on one thread), so this one is innermost.
    if (!open_spans().empty() && open_spans().back() == id_) open_spans().pop_back();
    id_ = -1;
  }
  return cpu_ms_;
}

std::size_t span_count() { return spans().size(); }

bool write_chrome_trace(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  const auto& records = spans();
  for (std::size_t i = 0; i < records.size(); ++i) {
    const SpanRecord& s = records[i];
    if (i > 0) out << ",\n";
    const std::string_view name(s.name);
    out << "{\"name\":";
    write_json_string(out, name);
    out << ",\"cat\":";
    write_json_string(out, name.substr(0, name.find('.')));
    out << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":";
    write_number(out, (s.wall_start - kTraceEpoch) * 1e6);
    out << ",\"dur\":";
    write_number(out, (s.wall_end - s.wall_start) * 1e6);
    out << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << ",\"cpu_ms\":";
    write_number(out, s.cpu_ms);
    for (std::size_t a = 0; a < s.num_args; ++a) {
      out << ',';
      write_json_string(out, s.args[a].first);
      out << ':';
      write_number(out, s.args[a].second);
    }
    out << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace memca::bench
