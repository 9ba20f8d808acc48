#include "monitor/cusum.h"

#include <algorithm>

#include "common/check.h"

namespace memca::monitor {

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

}  // namespace memca::monitor
