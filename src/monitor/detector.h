// Interference detectors (Section V-B), one statistic per class of defender.
//
// Threshold detection on sampled utilization — the user-centric approach,
// whose verdict depends entirely on the sampling granularity (Fig. 10) — is
// monitor/autoscaler.h's evaluate_autoscaler: any granularity, any
// threshold, one breaching window or several consecutive ones. The
// statistics here are the rest of what a defender can run:
//
//  * Periodicity on host-level LLC-miss counts — the provider-centric
//    approach (OProfile in the paper): an ON-OFF attack with a fixed
//    interval leaves an autocorrelation peak at its period (Fig. 11a, bus
//    saturation). The memory-lock variant leaves no LLC footprint, so this
//    detector stays blind (Fig. 11b).
//
//  * CUSUM change-point detection on utilization — the next step a defender
//    would try: instead of asking "is any window above 85%?", it accumulates
//    small persistent deviations from a learned baseline, so an ON-OFF
//    attack that only shifts the *mean* by 15-20 percentage points is
//    eventually caught even when no single window breaches. OnlineCusum
//    decides during a run, one sample at a time, with bounded state (the
//    defense pipeline's stage 1); detect_cusum folds a recorded series
//    through the same detector.
//
//  * Burstiness: burstiness_index over a recorded series (Fig. 11's
//    secondary statistic) and OnlineBurstScore per sample, which the
//    defense controller uses to rank co-located VMs when attributing an
//    alarm to a suspect.
#pragma once

#include <cstddef>

#include "common/timeseries.h"

namespace memca::monitor {

struct PeriodicityDetection {
  bool periodic = false;
  /// Best lag, in samples (valid when periodic).
  std::size_t best_lag = 0;
  /// Best lag converted to time using the series' sampling period.
  SimTime best_period = 0;
  /// Autocorrelation score at the best lag.
  double score = 0.0;
};

/// Scans lags in [min_lag, max_lag] for an autocorrelation peak.
/// `sample_period` is the spacing of the (uniformly sampled) series.
/// Declares periodicity when the peak score exceeds `score_threshold`.
PeriodicityDetection detect_periodicity(const TimeSeries& series, SimTime sample_period,
                                        std::size_t min_lag, std::size_t max_lag,
                                        double score_threshold = 0.35);

/// Burstiness index: ratio of the p-quantile to the median of the sample
/// values. Near 1 for steady series; large for ON-OFF patterns.
double burstiness_index(const TimeSeries& series, double q = 0.95);

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

/// Streaming burstiness of one activity signal: an exponentially weighted
/// mean of |x - level| normalised by the level. An always-on neighbor
/// scores low; an ON-OFF attacker scores high.
class OnlineBurstScore {
 public:
  void update(double value);

  /// Mean absolute deviation around the running level, normalised by the
  /// level (0 for a constant signal; ~1+ for hard ON-OFF patterns).
  double score() const;
  double level() const { return level_; }

 private:
  std::size_t seen_ = 0;
  double level_ = 0.0;
  double deviation_ = 0.0;
};

}  // namespace memca::monitor
