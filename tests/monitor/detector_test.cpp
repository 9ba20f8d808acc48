#include "monitor/detector.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace memca::monitor {
namespace {

TimeSeries burst_series(SimTime duration, SimTime period, SimTime on, double peak,
                        double base, double noise_cv = 0.0, std::uint64_t seed = 1) {
  TimeSeries ts;
  Rng rng(seed);
  for (SimTime t = 0; t < duration; t += msec(50)) {
    double v = (t % period) < on ? peak : base;
    if (noise_cv > 0.0) v = std::max(0.0, rng.normal(v, noise_cv * v));
    ts.append(t, v);
  }
  return ts;
}

TEST(PeriodicityDetector, FindsAttackInterval) {
  // 2 s burst interval, 50 ms samples -> lag 40.
  const TimeSeries series = burst_series(2 * kMinute, sec(std::int64_t{2}), msec(500),
                                         16.0, 2.0, 0.1, 3);
  const PeriodicityDetection d = detect_periodicity(series, msec(50), 5, 100);
  EXPECT_TRUE(d.periodic);
  EXPECT_EQ(d.best_lag, 40u);
  EXPECT_EQ(d.best_period, sec(std::int64_t{2}));
}

TEST(PeriodicityDetector, FlatNoiseIsNotPeriodic) {
  TimeSeries series;
  Rng rng(5);
  for (SimTime t = 0; t < 2 * kMinute; t += msec(50)) {
    series.append(t, rng.normal(10.0, 1.0));
  }
  const PeriodicityDetection d = detect_periodicity(series, msec(50), 5, 100);
  EXPECT_FALSE(d.periodic);
}

TEST(PeriodicityDetector, ShortSeriesIsNotPeriodic) {
  // Fewer than lag+2 samples cannot support an autocorrelation estimate.
  TimeSeries series;
  for (int i = 0; i < 3; ++i) series.append(msec(50 * i), static_cast<double>(i % 2));
  const PeriodicityDetection d = detect_periodicity(series, msec(50), 2, 100);
  EXPECT_FALSE(d.periodic);
}

TEST(PeriodicityDetector, ThresholdTunesSensitivity) {
  const TimeSeries series = burst_series(2 * kMinute, sec(std::int64_t{2}), msec(500),
                                         16.0, 2.0, 0.5, 7);
  const PeriodicityDetection loose = detect_periodicity(series, msec(50), 5, 100, 0.1);
  const PeriodicityDetection strict = detect_periodicity(series, msec(50), 5, 100, 0.99);
  EXPECT_TRUE(loose.periodic);
  EXPECT_FALSE(strict.periodic);
}

TEST(BurstinessIndex, DistinguishesOnOffFromSteady) {
  const TimeSeries bursty = burst_series(kMinute, sec(std::int64_t{2}), msec(200), 16.0, 2.0);
  TimeSeries steady;
  for (SimTime t = 0; t < kMinute; t += msec(50)) steady.append(t, 5.0);
  EXPECT_GT(burstiness_index(bursty), 3.0);
  EXPECT_NEAR(burstiness_index(steady), 1.0, 1e-9);
}

TEST(BurstinessIndex, TinySeriesDefaultsToOne) {
  TimeSeries ts;
  ts.append(0, 1.0);
  EXPECT_DOUBLE_EQ(burstiness_index(ts), 1.0);
}

TimeSeries flat_series(double level, std::size_t n, double noise = 0.0,
                       std::uint64_t seed = 1) {
  TimeSeries ts;
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    ts.append(sec(static_cast<std::int64_t>(i)), rng.normal(level, noise));
  }
  return ts;
}

TEST(Cusum, FlatSeriesNeverAlarms) {
  const CusumDetection d = detect_cusum(flat_series(0.5, 300, 0.02));
  EXPECT_FALSE(d.detected);
  EXPECT_NEAR(d.baseline_mean, 0.5, 0.01);
  EXPECT_LT(d.peak_statistic, 1.0);
}

TEST(Cusum, StepChangeIsDetected) {
  TimeSeries ts;
  Rng rng(2);
  for (int i = 0; i < 300; ++i) {
    const double level = i < 100 ? 0.45 : 0.65;  // +20pp mean shift at t=100
    ts.append(sec(static_cast<std::int64_t>(i)), rng.normal(level, 0.03));
  }
  const CusumDetection d = detect_cusum(ts);
  EXPECT_TRUE(d.detected);
  EXPECT_GE(d.alarm_time, sec(std::int64_t{100}));
  EXPECT_LE(d.alarm_time, sec(std::int64_t{130}));  // detection latency bounded
}

TEST(Cusum, OnOffAttackShiftsMeanEnough) {
  // MemCA raises 1-second average utilization from ~45% to ~65%: invisible
  // to an 85% threshold, but CUSUM accumulates the persistent +20pp shift.
  TimeSeries ts;
  Rng rng(3);
  for (int i = 0; i < 400; ++i) {
    double level = 0.45;
    if (i >= 100) level = (i % 2 == 0) ? 0.80 : 0.50;  // attacked: mean 0.65
    ts.append(sec(static_cast<std::int64_t>(i)), rng.normal(level, 0.03));
  }
  const CusumDetection d = detect_cusum(ts);
  EXPECT_TRUE(d.detected);
}

TEST(Cusum, AllowanceSuppressesSmallDrift) {
  TimeSeries ts;
  Rng rng(4);
  for (int i = 0; i < 300; ++i) {
    const double level = i < 100 ? 0.50 : 0.53;  // +3pp, below the 5pp allowance
    ts.append(sec(static_cast<std::int64_t>(i)), rng.normal(level, 0.01));
  }
  EXPECT_FALSE(detect_cusum(ts).detected);
}

TEST(Cusum, ThresholdControlsSensitivity) {
  TimeSeries ts;
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const double level = i < 100 ? 0.5 : 0.62;
    ts.append(sec(static_cast<std::int64_t>(i)), rng.normal(level, 0.02));
  }
  CusumConfig loose;
  loose.threshold = 0.5;
  CusumConfig strict;
  strict.threshold = 50.0;
  EXPECT_TRUE(detect_cusum(ts, loose).detected);
  EXPECT_FALSE(detect_cusum(ts, strict).detected);
}

TEST(Cusum, TooFewSamplesIsSilent) {
  const CusumDetection d = detect_cusum(flat_series(0.9, 10));
  EXPECT_FALSE(d.detected);
}

TEST(Cusum, StatisticResetsAfterExcursion) {
  // A brief excursion that subsides leaves the statistic back near zero.
  TimeSeries ts;
  for (int i = 0; i < 300; ++i) {
    double level = 0.5;
    if (i >= 100 && i < 105) level = 0.7;  // 5-sample blip
    ts.append(sec(static_cast<std::int64_t>(i)), level);
  }
  CusumConfig config;
  config.threshold = 2.0;
  const CusumDetection d = detect_cusum(ts, config);
  EXPECT_FALSE(d.detected);
  EXPECT_NEAR(d.peak_statistic, 5 * (0.2 - 0.05), 0.01);
}

TEST(OnlineCusum, LearnsBaselineThenWatches) {
  OnlineCusum cusum;
  for (int i = 0; i < 30; ++i) {
    EXPECT_FALSE(cusum.update(0.5));
    EXPECT_FALSE(cusum.alarmed());
  }
  EXPECT_TRUE(cusum.baseline_ready());
  EXPECT_NEAR(cusum.baseline(), 0.5, 1e-12);
}

TEST(OnlineCusum, FiresOnSustainedShift) {
  OnlineCusum cusum;
  Rng rng(1);
  for (int i = 0; i < 40; ++i) cusum.update(rng.normal(0.45, 0.02));
  int steps_to_alarm = 0;
  bool fired = false;
  for (int i = 0; i < 100 && !fired; ++i) {
    fired = cusum.update(rng.normal(0.65, 0.02)) && !steps_to_alarm;
    ++steps_to_alarm;
    if (cusum.alarmed()) break;
  }
  EXPECT_TRUE(cusum.alarmed());
  // +0.20 shift with 0.05 allowance: ~7 samples to cross threshold 1.0.
  EXPECT_LE(steps_to_alarm, 15);
}

TEST(OnlineCusum, StaysQuietOnNoise) {
  OnlineCusum cusum;
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) cusum.update(rng.normal(0.5, 0.03));
  EXPECT_FALSE(cusum.alarmed());
}

TEST(OnlineCusum, UpdateKeepsReturningTrueAfterAlarm) {
  OnlineCusum cusum;
  for (int i = 0; i < 30; ++i) cusum.update(0.3);
  for (int i = 0; i < 50; ++i) cusum.update(0.9);
  EXPECT_TRUE(cusum.alarmed());
  EXPECT_TRUE(cusum.update(0.3));  // still alarmed even if signal subsides
}

TEST(OnlineCusum, ResetRelearnsBaseline) {
  OnlineCusum cusum;
  for (int i = 0; i < 30; ++i) cusum.update(0.3);
  for (int i = 0; i < 50; ++i) cusum.update(0.9);
  EXPECT_TRUE(cusum.alarmed());
  cusum.reset();
  EXPECT_FALSE(cusum.alarmed());
  EXPECT_EQ(cusum.samples_seen(), 0u);
  // The new (higher) level becomes the baseline: no alarm.
  for (int i = 0; i < 100; ++i) cusum.update(0.9);
  EXPECT_FALSE(cusum.alarmed());
}

TEST(OnlineBurstScore, ConstantSignalScoresZero) {
  OnlineBurstScore score;
  for (int i = 0; i < 200; ++i) score.update(5.0);
  EXPECT_NEAR(score.score(), 0.0, 1e-9);
  EXPECT_NEAR(score.level(), 5.0, 1e-9);
}

TEST(OnlineBurstScore, OnOffSignalScoresHigh) {
  OnlineBurstScore onoff;
  OnlineBurstScore steady;
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    onoff.update((i % 40) < 10 ? 9.5 : 0.0);  // MemCA-like duty 25%
    steady.update(rng.normal(2.0, 0.2));       // ordinary neighbor
  }
  EXPECT_GT(onoff.score(), 1.0);
  EXPECT_LT(steady.score(), 0.3);
  EXPECT_GT(onoff.score(), 5.0 * steady.score());
}

TEST(OnlineBurstScore, IdleSignalScoresZero) {
  OnlineBurstScore score;
  for (int i = 0; i < 100; ++i) score.update(0.0);
  EXPECT_NEAR(score.score(), 0.0, 1e-9);
}

}  // namespace
}  // namespace memca::monitor
