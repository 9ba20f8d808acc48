#include "monitor/detector.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"

namespace memca::monitor {

namespace {
/// OnlineBurstScore's EWMA smoothing factor for the level estimate.
constexpr double kBurstScoreAlpha = 0.1;
}  // namespace

PeriodicityDetection detect_periodicity(const TimeSeries& series, SimTime sample_period,
                                        std::size_t min_lag, std::size_t max_lag,
                                        double score_threshold) {
  MEMCA_CHECK_MSG(min_lag >= 1 && min_lag <= max_lag, "invalid lag range");
  MEMCA_CHECK_MSG(sample_period > 0, "sample period must be positive");
  PeriodicityDetection result;
  for (std::size_t lag = min_lag; lag <= max_lag; ++lag) {
    const double score = series.autocorrelation(lag);
    if (score > result.score) {
      result.score = score;
      result.best_lag = lag;
    }
  }
  if (result.score > score_threshold && result.best_lag > 0) {
    result.periodic = true;
    result.best_period = static_cast<SimTime>(result.best_lag) * sample_period;
  }
  return result;
}

double burstiness_index(const TimeSeries& series, double q) {
  MEMCA_CHECK(q > 0.0 && q < 1.0);
  if (series.size() < 4) return 1.0;
  std::vector<double> values;
  values.reserve(series.size());
  for (const Sample& s : series.samples()) values.push_back(s.value);
  std::sort(values.begin(), values.end());
  const double median = values[values.size() / 2];
  const auto qidx = static_cast<std::size_t>(q * static_cast<double>(values.size() - 1));
  const double upper = values[qidx];
  if (median <= 0.0) return upper > 0.0 ? 1e9 : 1.0;
  return upper / median;
}

OnlineCusum::OnlineCusum(CusumConfig config) : config_(config) {
  MEMCA_CHECK_MSG(config_.baseline_samples >= 2, "need at least two baseline samples");
  MEMCA_CHECK_MSG(config_.threshold > 0.0, "threshold must be positive");
}

bool OnlineCusum::update(double value) {
  ++seen_;
  if (seen_ <= config_.baseline_samples) {
    baseline_sum_ += value;
    baseline_ = baseline_sum_ / static_cast<double>(seen_);
    return false;
  }
  statistic_ = std::max(0.0, statistic_ + value - baseline_ - config_.allowance);
  if (!alarmed_ && statistic_ > config_.threshold) {
    alarmed_ = true;
    return true;
  }
  return alarmed_;
}

void OnlineCusum::reset() {
  seen_ = 0;
  baseline_sum_ = 0.0;
  baseline_ = 0.0;
  statistic_ = 0.0;
  alarmed_ = false;
}

CusumDetection detect_cusum(const TimeSeries& series, const CusumConfig& config) {
  OnlineCusum cusum(config);
  CusumDetection result;
  const auto& samples = series.samples();
  if (samples.size() <= config.baseline_samples) return result;
  for (const Sample& s : samples) {
    if (cusum.update(s.value) && !result.detected) {
      result.detected = true;
      result.alarm_time = s.time;
    }
    result.peak_statistic = std::max(result.peak_statistic, cusum.statistic());
  }
  result.baseline_mean = cusum.baseline();
  return result;
}

void OnlineBurstScore::update(double value) {
  ++seen_;
  if (seen_ == 1) {
    level_ = value;
    deviation_ = 0.0;
    return;
  }
  deviation_ =
      (1.0 - kBurstScoreAlpha) * deviation_ + kBurstScoreAlpha * std::abs(value - level_);
  level_ = (1.0 - kBurstScoreAlpha) * level_ + kBurstScoreAlpha * value;
}

double OnlineBurstScore::score() const {
  if (seen_ < 2) return 0.0;
  const double denom = std::max(level_, 1e-9);
  return deviation_ / denom;
}

}  // namespace memca::monitor
