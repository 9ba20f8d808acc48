#include "common/timeseries.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace memca {

void TimeSeries::append(SimTime time, double value) {
  MEMCA_CHECK_MSG(samples_.empty() || time >= samples_.back().time,
                  "TimeSeries::append requires non-decreasing time");
  samples_.push_back(Sample{time, value});
}

Sample TimeSeries::front() const {
  MEMCA_CHECK(!samples_.empty());
  return samples_.front();
}

Sample TimeSeries::back() const {
  MEMCA_CHECK(!samples_.empty());
  return samples_.back();
}

double TimeSeries::mean() const {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (const Sample& s : samples_) sum += s.value;
  return sum / static_cast<double>(samples_.size());
}

double TimeSeries::max() const {
  double m = 0.0;
  bool first = true;
  for (const Sample& s : samples_) {
    m = first ? s.value : std::max(m, s.value);
    first = false;
  }
  return m;
}

double TimeSeries::mean_in(SimTime start, SimTime end) const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const Sample& s : samples_) {
    if (s.time >= start && s.time < end) {
      sum += s.value;
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double TimeSeries::max_in(SimTime start, SimTime end) const {
  double m = 0.0;
  bool first = true;
  for (const Sample& s : samples_) {
    if (s.time >= start && s.time < end) {
      m = first ? s.value : std::max(m, s.value);
      first = false;
    }
  }
  return first ? 0.0 : m;
}

std::size_t TimeSeries::count_above(double threshold) const {
  std::size_t n = 0;
  for (const Sample& s : samples_) {
    if (s.value > threshold) ++n;
  }
  return n;
}

template <typename Reduce>
TimeSeries TimeSeries::resample(SimTime granularity, Reduce reduce) const {
  MEMCA_CHECK_MSG(granularity > 0, "resample granularity must be positive");
  TimeSeries out;
  std::size_t i = 0;
  while (i < samples_.size()) {
    const SimTime window_start = (samples_[i].time / granularity) * granularity;
    const SimTime window_end = window_start + granularity;
    std::size_t j = i;
    while (j < samples_.size() && samples_[j].time < window_end) ++j;
    // j may equal size(): form the end pointer from data(), never by
    // indexing one past the last sample.
    out.append(window_start, reduce(samples_.data() + i, samples_.data() + j));
    i = j;
  }
  return out;
}

TimeSeries TimeSeries::resample_mean(SimTime granularity) const {
  return resample(granularity, [](const Sample* first, const Sample* last) {
    double sum = 0.0;
    for (const Sample* s = first; s != last; ++s) sum += s->value;
    return sum / static_cast<double>(last - first);
  });
}

TimeSeries TimeSeries::resample_max(SimTime granularity) const {
  return resample(granularity, [](const Sample* first, const Sample* last) {
    double m = first->value;
    for (const Sample* s = first; s != last; ++s) m = std::max(m, s->value);
    return m;
  });
}

TimeSeries TimeSeries::merge_sum(const TimeSeries& other) const {
  TimeSeries out;
  out.samples_.reserve(samples_.size() + other.samples_.size());
  std::size_t i = 0, j = 0;
  while (i < samples_.size() && j < other.samples_.size()) {
    const Sample& a = samples_[i];
    const Sample& b = other.samples_[j];
    if (a.time == b.time) {
      out.samples_.push_back(Sample{a.time, a.value + b.value});
      ++i;
      ++j;
    } else if (a.time < b.time) {
      out.samples_.push_back(a);
      ++i;
    } else {
      out.samples_.push_back(b);
      ++j;
    }
  }
  for (; i < samples_.size(); ++i) out.samples_.push_back(samples_[i]);
  for (; j < other.samples_.size(); ++j) out.samples_.push_back(other.samples_[j]);
  return out;
}

double TimeSeries::autocorrelation(std::size_t lag) const {
  const std::size_t n = samples_.size();
  if (n < lag + 2) return 0.0;
  double mu = mean();
  double var = 0.0;
  for (const Sample& s : samples_) {
    const double d = s.value - mu;
    var += d * d;
  }
  if (var <= 0.0) return 0.0;
  double cov = 0.0;
  for (std::size_t i = 0; i + lag < n; ++i) {
    cov += (samples_[i].value - mu) * (samples_[i + lag].value - mu);
  }
  return cov / var;
}

}  // namespace memca
