// CUSUM change-point detection on utilization series.
//
// The paper argues (Section V-B) that simple threshold monitors at coarse
// granularity cannot see MemCA, and that effective detection "requires
// significant future research". CUSUM is the natural next step a defender
// would try: instead of asking "is any window above 85%?", it accumulates
// small persistent deviations from a learned baseline, so an ON-OFF attack
// that only shifts the *mean* by 15-20 percentage points is eventually
// caught even when no single window breaches.
//
// One detector, two ways to drive it: OnlineCusum decides during a run, one
// sample at a time, with bounded state (the defense pipeline's stage 1);
// detect_cusum replays a recorded series through the same detector (the
// ablation benches use it to show which attack schedules CUSUM catches, at
// which detection latency, and what false-alarm rate the defender pays for
// that sensitivity).
#pragma once

#include <cstddef>

#include "common/timeseries.h"

namespace memca::monitor {

struct CusumConfig {
  /// Samples used to learn the baseline mean (must precede the attack).
  std::size_t baseline_samples = 30;
  /// Allowance k: deviations below baseline+k are ignored (in value units,
  /// e.g. utilization fraction).
  double allowance = 0.05;
  /// Decision threshold h on the accumulated statistic.
  double threshold = 1.0;
};

/// One-sided (upward) streaming CUSUM. Learns its baseline mean from the
/// first baseline_samples samples, then
///   S_0 = 0;  S_t = max(0, S_{t-1} + x_t - mean0 - k);  alarm when S_t > h.
/// Resettable (after a mitigation, the baseline changes).
class OnlineCusum {
 public:
  explicit OnlineCusum(CusumConfig config = {});

  /// Feeds one sample; returns true on the sample that first crosses the
  /// threshold (subsequent samples keep returning alarmed()).
  bool update(double value);

  bool alarmed() const { return alarmed_; }
  double statistic() const { return statistic_; }
  double baseline() const { return baseline_; }
  bool baseline_ready() const { return seen_ >= config_.baseline_samples; }
  std::size_t samples_seen() const { return seen_; }

  /// Forgets everything (baseline re-learned from upcoming samples).
  void reset();

 private:
  CusumConfig config_;
  std::size_t seen_ = 0;
  double baseline_sum_ = 0.0;
  double baseline_ = 0.0;
  double statistic_ = 0.0;
  bool alarmed_ = false;
};

struct CusumDetection {
  bool detected = false;
  /// Time of the first alarm (valid when detected).
  SimTime alarm_time = 0;
  /// Peak value of the CUSUM statistic.
  double peak_statistic = 0.0;
  /// Learned baseline mean.
  double baseline_mean = 0.0;
};

/// Folds the series values through an OnlineCusum. A series no longer than
/// the baseline yields an empty detection.
CusumDetection detect_cusum(const TimeSeries& series, const CusumConfig& config = {});

}  // namespace memca::monitor
