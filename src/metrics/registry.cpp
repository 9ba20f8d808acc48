#include "metrics/registry.h"

#include <algorithm>
#include <bit>
#include <ostream>

#include "common/check.h"

namespace memca::metrics {

const char* to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kProbe:
      return "probe";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "?";
}

namespace {
Labels canonical(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}
}  // namespace

std::string Registry::key_of(std::string_view name, const Labels& labels) {
  std::string key(name);
  for (const auto& [k, v] : labels) {
    key += '\x1f';  // unit separator: cannot appear in sane label text
    key += k;
    key += '\x1e';
    key += v;
  }
  return key;
}

Registry::Cell& Registry::intern(std::string_view name, Labels labels, MetricKind kind) {
  labels = canonical(std::move(labels));
  const std::string key = key_of(name, labels);
  if (auto it = index_.find(key); it != index_.end()) {
    Cell& cell = cells_[it->second];
    MEMCA_CHECK_MSG(cell.kind == kind, "metric re-registered with a different kind");
    return cell;
  }
  index_.emplace(key, cells_.size());
  Cell& cell = cells_.emplace_back();
  cell.name = std::string(name);
  cell.labels = std::move(labels);
  cell.kind = kind;
  return cell;
}

Counter Registry::counter(std::string_view name, Labels labels) {
  return Counter(&intern(name, std::move(labels), MetricKind::kCounter).counter);
}

Gauge Registry::gauge(std::string_view name, Labels labels) {
  return Gauge(&intern(name, std::move(labels), MetricKind::kGauge).gauge);
}

HistogramHandle Registry::histogram(std::string_view name, Labels labels) {
  Cell& cell = intern(name, std::move(labels), MetricKind::kHistogram);
  if (cell.hist == nullptr) cell.hist = std::make_unique<LatencyHistogram>();
  return HistogramHandle(cell.hist.get());
}

void Registry::probe(std::string_view name, Labels labels, std::function<double()> fn) {
  MEMCA_CHECK_MSG(static_cast<bool>(fn), "probe needs a callable");
  Cell& cell = intern(name, std::move(labels), MetricKind::kProbe);
  cell.probe_fn = std::move(fn);
}

void Registry::scrape(SimTime now) {
  for (Cell& cell : cells_) {
    switch (cell.kind) {
      case MetricKind::kGauge:
        cell.series.append(now, cell.gauge);
        break;
      case MetricKind::kProbe:
        // A merged registry carries probe data without callbacks; its last
        // sampled value stands in (see merge()).
        if (cell.probe_fn) cell.gauge = cell.probe_fn();
        cell.series.append(now, cell.gauge);
        break;
      case MetricKind::kCounter:
      case MetricKind::kHistogram:
        break;
    }
  }
  ++scrapes_;
}

std::vector<std::size_t> Registry::family(std::string_view name) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (cells_[i].name == name) out.push_back(i);
  }
  return out;
}

std::string Registry::label_value(std::size_t i, std::string_view key) const {
  for (const auto& [k, v] : cells_[i].labels) {
    if (k == key) return v;
  }
  return "";
}

std::size_t Registry::find(std::string_view name, const Labels& labels) const {
  const auto it = index_.find(key_of(name, canonical(labels)));
  return it == index_.end() ? npos : it->second;
}

std::int64_t Registry::counter_value(std::string_view name, const Labels& labels) const {
  const std::size_t i = find(name, labels);
  return i == npos ? 0 : cells_[i].counter;
}

double Registry::gauge_value(std::string_view name, const Labels& labels) const {
  const std::size_t i = find(name, labels);
  return i == npos ? 0.0 : cells_[i].gauge;
}

const TimeSeries* Registry::series(std::string_view name, const Labels& labels) const {
  const std::size_t i = find(name, labels);
  return i == npos ? nullptr : &cells_[i].series;
}

const LatencyHistogram* Registry::find_histogram(std::string_view name,
                                                 const Labels& labels) const {
  const std::size_t i = find(name, labels);
  return i == npos ? nullptr : cells_[i].hist.get();
}

void Registry::merge(const Registry& other) {
  for (const Cell& theirs : other.cells_) {
    Cell& ours = intern(theirs.name, theirs.labels, theirs.kind);
    ours.counter += theirs.counter;
    ours.gauge += theirs.gauge;
    if (theirs.hist != nullptr) {
      if (ours.hist == nullptr) ours.hist = std::make_unique<LatencyHistogram>();
      ours.hist->merge(*theirs.hist);
    }
    ours.series = ours.series.merge_sum(theirs.series);
  }
  scrapes_ = std::max(scrapes_, other.scrapes_);
}

void Registry::capture(Snapshot& out) const {
  out.scrapes = scrapes_;
  out.cells.resize(cells_.size());
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const Cell& cell = cells_[i];
    Snapshot::CellState& s = out.cells[i];
    s.counter = cell.counter;
    s.gauge = cell.gauge;
    s.series_size = cell.series.size();
    if (cell.hist != nullptr) {
      if (s.hist == nullptr) s.hist = std::make_unique<LatencyHistogram>();
      *s.hist = *cell.hist;
    } else {
      s.hist.reset();
    }
  }
}

void Registry::restore(const Snapshot& snap) {
  MEMCA_CHECK_MSG(snap.cells.size() <= cells_.size(),
                  "a Snapshot only restores into the registry it captured");
  if (snap.cells.size() < cells_.size()) {
    cells_.resize(snap.cells.size());
    for (auto it = index_.begin(); it != index_.end();) {
      if (it->second >= snap.cells.size()) {
        it = index_.erase(it);
      } else {
        ++it;
      }
    }
  }
  scrapes_ = snap.scrapes;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    Cell& cell = cells_[i];
    const Snapshot::CellState& s = snap.cells[i];
    cell.counter = s.counter;
    cell.gauge = s.gauge;
    cell.series.truncate(s.series_size);
    MEMCA_CHECK((cell.hist != nullptr) == (s.hist != nullptr));
    if (cell.hist != nullptr) *cell.hist = *s.hist;
  }
}

void Registry::clone_values_into(Registry& out) const {
  MEMCA_CHECK_MSG(out.cells_.empty(), "clone target must be an empty registry");
  for (const Cell& cell : cells_) {
    Cell& copy = out.intern(cell.name, cell.labels, cell.kind);
    copy.counter = cell.counter;
    copy.gauge = cell.gauge;
    if (cell.hist != nullptr) {
      copy.hist = std::make_unique<LatencyHistogram>(*cell.hist);
    }
    copy.series = cell.series;
  }
  out.scrapes_ = scrapes_;
}

namespace {
// Doubles as raw bit patterns: equal text iff bit-identical values.
void put_bits(std::ostream& out, double v) {
  out << std::bit_cast<std::uint64_t>(v);
}
}  // namespace

void Registry::serialize(std::ostream& out) const {
  for (const Cell& cell : cells_) {
    out << cell.name;
    for (const auto& [k, v] : cell.labels) out << '{' << k << '=' << v << '}';
    out << ' ' << to_string(cell.kind) << " counter=" << cell.counter << " gauge=";
    put_bits(out, cell.gauge);
    if (cell.hist != nullptr) {
      out << " hist_count=" << cell.hist->count() << " hist_min=" << cell.hist->min()
          << " hist_max=" << cell.hist->max() << " hist_p50=" << cell.hist->quantile(0.5)
          << " hist_p99=" << cell.hist->quantile(0.99) << " hist_sum_bits=";
      put_bits(out, cell.hist->mean() * static_cast<double>(cell.hist->count()));
    }
    out << '\n';
    if (!cell.series.empty()) {
      out << "  series " << cell.series.size();
      for (const Sample& s : cell.series.samples()) {
        out << ' ' << s.time << ':';
        put_bits(out, s.value);
      }
      out << '\n';
    }
  }
}

}  // namespace memca::metrics
