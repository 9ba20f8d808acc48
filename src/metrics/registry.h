// Runtime metrics registry: counters, gauges, probes and log-bucketed
// histograms with labeled families.
//
// Design goals, in priority order:
//  * One count per fact. The layer that counts an event keeps the only
//    running count (tier, client and lock-table accessors, the engine's
//    self-profile); the registry takes the run's totals at end of run
//    through set-only handles (RubbosTestbed::finalize_metrics), so the
//    per-event path never touches it. Handles are raw pointers into the
//    registry's pointer-stable cell arena: no map lookup on a write.
//  * Sampled signals. scrape(now) evaluates every probe and appends it and
//    every gauge to a per-instrument TimeSeries (the testbed's telemetry
//    clock calls it on every tick): the utilization, queue-length and
//    capacity traces the paper's stealth analysis reads at 50 ms, 1 s and
//    1 min. Counters and histograms carry no series; their value is the
//    total or the whole distribution.
//  * Determinism. Registration order defines iteration and export order.
//    The same scenario built twice registers identically, so two runs of a
//    sweep cell serialize to identical bytes — which is what makes per-cell
//    registries mergeable into a bit-identical whole regardless of how many
//    worker threads executed the sweep.
//
// Registries are single-threaded like the simulations they observe: one
// registry per sweep cell, merged after the batch drains.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/time.h"
#include "common/timeseries.h"

namespace memca::metrics {

/// Label key/value pairs; canonicalized (sorted by key) at registration.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind { kCounter, kGauge, kProbe, kHistogram };

const char* to_string(MetricKind kind);

/// Handle for a total: set once its owner's count is final (burst counts,
/// log-line tallies, engine event counts, tier and client totals).
class Counter {
 public:
  void set_to(std::int64_t v) { *value_ = v; }
  std::int64_t value() const { return *value_; }

 private:
  friend class Registry;
  explicit Counter(std::int64_t* value) : value_(value) {}
  std::int64_t* value_;
};

/// Handle for a point-in-time value.
class Gauge {
 public:
  void set(double v) { *value_ = v; }

 private:
  friend class Registry;
  explicit Gauge(double* value) : value_(value) {}
  double* value_;
};

/// Handle for a log-bucketed latency histogram, set to a copy of the
/// distribution its owner recorded.
class HistogramHandle {
 public:
  void set_to(const LatencyHistogram& hist) { *hist_ = hist; }

 private:
  friend class Registry;
  explicit HistogramHandle(LatencyHistogram* hist) : hist_(hist) {}
  LatencyHistogram* hist_;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Each factory registers the instrument (or finds an existing one with
  /// the same name+labels — handles to one instrument alias) and returns a
  /// pre-resolved handle. Registration is map-based.
  Counter counter(std::string_view name, Labels labels = {});
  Gauge gauge(std::string_view name, Labels labels = {});
  HistogramHandle histogram(std::string_view name, Labels labels = {});
  /// A probe is a gauge evaluated by scrape(): `fn` is called once per
  /// scrape and its value recorded. Must be pure w.r.t. sim state (no side
  /// effects beyond its own closure) to keep runs deterministic.
  void probe(std::string_view name, Labels labels, std::function<double()> fn);

  /// Evaluates every probe and appends it and every gauge to its series,
  /// stamped `now`. Counters and histograms carry no series (their value
  /// is the run's total or its whole distribution).
  void scrape(SimTime now);
  std::int64_t scrapes() const { return scrapes_; }

  // -- introspection (registration order) ----------------------------------
  std::size_t size() const { return cells_.size(); }
  const std::string& name(std::size_t i) const { return cells_[i].name; }
  const Labels& labels(std::size_t i) const { return cells_[i].labels; }
  MetricKind kind(std::size_t i) const { return cells_[i].kind; }
  const TimeSeries& series_at(std::size_t i) const { return cells_[i].series; }

  /// Indices of every instrument in family `name`, registration order.
  std::vector<std::size_t> family(std::string_view name) const;
  /// Value of one label on instrument `i` ("" if absent).
  std::string label_value(std::size_t i, std::string_view key) const;

  // -- lookup by full key (report-builder paths; not hot) -------------------
  /// Index of name+labels, or npos.
  std::size_t find(std::string_view name, const Labels& labels = {}) const;
  std::int64_t counter_value(std::string_view name, const Labels& labels = {}) const;
  double gauge_value(std::string_view name, const Labels& labels = {}) const;
  /// nullptr when absent.
  const TimeSeries* series(std::string_view name, const Labels& labels = {}) const;
  const LatencyHistogram* find_histogram(std::string_view name,
                                         const Labels& labels = {}) const;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Checkpoint of every instrument's data: counter/gauge values, histogram
  /// contents, and series lengths (series are append-only, so restore is a
  /// truncation). Instruments registered after the capture are dropped by
  /// restore() — handles resolved into them dangle, exactly like handles
  /// into a destroyed registry — while earlier handles stay valid because
  /// cells never move. Probe callbacks are wiring and are left untouched.
  struct Snapshot {
    struct CellState {
      std::int64_t counter = 0;
      double gauge = 0.0;
      std::size_t series_size = 0;
      /// Allocated only for histogram cells.
      std::unique_ptr<LatencyHistogram> hist;
    };
    std::vector<CellState> cells;
    std::int64_t scrapes = 0;
  };

  void capture(Snapshot& out) const;
  void restore(const Snapshot& snap);

  /// Copies every instrument's data — name, labels, kind, values, series,
  /// histograms — into `out` (which must be empty), leaving probe callbacks
  /// behind. merge()/serialize() never evaluate probe callbacks, so merging
  /// or serializing the clone yields the same bytes as the original. This is
  /// how a checkpointed sweep harvests a cell's registry before rolling the
  /// live world back for the next cell.
  void clone_values_into(Registry& out) const;

  /// Merges `other` into this registry: instruments are matched by
  /// name+labels (appended in other's registration order when absent here).
  /// Every value-bearing field is additive — counters and gauges sum,
  /// histograms merge, series align-and-sum (TimeSeries::merge_sum) — so
  /// merging per-cell sweep registries in cell order yields bytes that are
  /// independent of the thread count that ran the cells. Probe callbacks do
  /// not survive a merge (a merged registry is a data artifact, not a live
  /// one); probe cells keep their last sampled value as a gauge.
  void merge(const Registry& other);

  /// Canonical byte-exact text form: one block per instrument in
  /// registration order, doubles rendered as raw IEEE-754 bit patterns so
  /// equal serializations imply bit-identical registries. This is the
  /// determinism oracle for parallel sweeps, not a human-facing export
  /// (build_run_report() and its write_json/write_markdown writers are).
  void serialize(std::ostream& out) const;

 private:
  struct Cell {
    std::string name;
    Labels labels;
    MetricKind kind = MetricKind::kCounter;
    std::int64_t counter = 0;
    double gauge = 0.0;
    std::function<double()> probe_fn;
    std::unique_ptr<LatencyHistogram> hist;
    TimeSeries series;
  };

  Cell& intern(std::string_view name, Labels labels, MetricKind kind);
  static std::string key_of(std::string_view name, const Labels& labels);

  /// Deque: growth never relocates a cell, so handles stay valid for the
  /// registry's lifetime.
  std::deque<Cell> cells_;
  /// name+labels -> index; registration/lookup only, never on a hot path.
  std::map<std::string, std::size_t, std::less<>> index_;
  std::int64_t scrapes_ = 0;
};

}  // namespace memca::metrics
