#include "monitor/autoscaler.h"

#include <gtest/gtest.h>

#include <utility>

namespace memca::monitor {
namespace {

/// Builds a fine-grained (50 ms) utilization series over `duration` where
/// utilization is `peak` for the first `on` of every `period`, else `base`.
TimeSeries on_off_series(SimTime duration, SimTime period, SimTime on, double peak,
                         double base) {
  TimeSeries ts;
  for (SimTime t = 0; t < duration; t += msec(50)) {
    ts.append(t, (t % period) < on ? peak : base);
  }
  return ts;
}

/// MemCA-style ON-OFF utilization at a 2 s interval, 100% while a burst is
/// ON: (burst length, base utilization) pairs.
constexpr std::pair<SimTime, double> kFig10Bursts[] = {{msec(600), 0.55}, {msec(500), 0.5}};

TEST(AutoScaler, SteadyHighLoadTriggers) {
  TimeSeries ts;
  for (SimTime t = 0; t < 3 * kMinute; t += msec(50)) ts.append(t, 0.95);
  AutoScalerConfig config;
  const ScaleDecision d = evaluate_autoscaler(ts, config);
  EXPECT_TRUE(d.triggered);
  EXPECT_EQ(d.trigger_time, kMinute);
  EXPECT_EQ(d.breaching_windows.size(), 3u);
  // A brute-force attack saturates steadily: every granularity sees it.
  for (const SimTime period : {msec(50), sec(std::int64_t{1})}) {
    config.sampling_period = period;
    EXPECT_TRUE(evaluate_autoscaler(ts, config).triggered);
  }
}

TEST(AutoScaler, ModerateLoadDoesNotTrigger) {
  TimeSeries ts;
  for (SimTime t = 0; t < 3 * kMinute; t += msec(50)) ts.append(t, 0.55);
  const ScaleDecision d = evaluate_autoscaler(ts, AutoScalerConfig{});
  EXPECT_FALSE(d.triggered);
  EXPECT_TRUE(d.breaching_windows.empty());
}

TEST(AutoScaler, MemcaStyleBurstsInvisibleAtOneMinute) {
  // 100% CPU for 600 ms of every 2 s on a 55% base: 1-min average ~ 68%
  // (500 ms on 50%: ~ 63%), below the 85% trigger — the Fig. 10a result.
  for (const auto& [on, base] : kFig10Bursts) {
    const TimeSeries fine = on_off_series(5 * kMinute, sec(std::int64_t{2}), on, 1.0, base);
    const ScaleDecision d = evaluate_autoscaler(fine, AutoScalerConfig{});
    EXPECT_FALSE(d.triggered);
    EXPECT_GT(d.observed.mean(), 0.5);
    EXPECT_LT(d.observed.max(), 0.85);
  }
}

TEST(AutoScaler, SameBurstsVisibleAtFineGranularity) {
  // The identical signal trips the same policy if the monitor sampled at
  // 50 ms — granularity, not threshold, is what hides MemCA. 1 s is still
  // too coarse: no one-second window reaches the 85% trigger (Fig. 10b).
  for (const auto& [on, base] : kFig10Bursts) {
    const TimeSeries fine = on_off_series(5 * kMinute, sec(std::int64_t{2}), on, 1.0, base);
    AutoScalerConfig config;
    config.sampling_period = msec(50);
    EXPECT_TRUE(evaluate_autoscaler(fine, config).triggered);
    config.sampling_period = sec(std::int64_t{1});
    EXPECT_FALSE(evaluate_autoscaler(fine, config).triggered);
  }
}

TEST(AutoScaler, CountsBreachingWindows) {
  // 10 samples per 500 ms burst, 5 bursts, every one above 0.9 at 50 ms.
  const TimeSeries fine =
      on_off_series(sec(std::int64_t{10}), sec(std::int64_t{2}), msec(500), 1.0, 0.2);
  const ScaleDecision d = evaluate_autoscaler(fine, {msec(50), 0.9, 1});
  EXPECT_TRUE(d.triggered);
  EXPECT_EQ(d.breaching_windows.size(), 50u);
  EXPECT_EQ(d.observed.size(), 200u);
  EXPECT_EQ(d.breaching_windows.front(), 0);
  EXPECT_DOUBLE_EQ(d.observed.max(), 1.0);
}

TEST(AutoScaler, ConsecutivePeriodsRequirement) {
  // One hot minute among cool ones does not trigger a 2-period policy.
  TimeSeries ts;
  for (SimTime t = 0; t < 4 * kMinute; t += msec(50)) {
    const bool hot_minute = (t >= kMinute && t < 2 * kMinute);
    ts.append(t, hot_minute ? 0.95 : 0.3);
  }
  AutoScalerConfig config;
  config.consecutive_periods = 2;
  const ScaleDecision d = evaluate_autoscaler(ts, config);
  EXPECT_FALSE(d.triggered);
  EXPECT_EQ(d.breaching_windows.size(), 1u);
}

TEST(AutoScaler, ConsecutivePeriodsSatisfied) {
  TimeSeries ts;
  for (SimTime t = 0; t < 4 * kMinute; t += msec(50)) {
    ts.append(t, t >= kMinute ? 0.95 : 0.3);
  }
  AutoScalerConfig config;
  config.consecutive_periods = 2;
  const ScaleDecision d = evaluate_autoscaler(ts, config);
  EXPECT_TRUE(d.triggered);
  EXPECT_EQ(d.trigger_time, 3 * kMinute);
}

TEST(AutoScaler, EmptySeries) {
  const ScaleDecision d = evaluate_autoscaler(TimeSeries{}, AutoScalerConfig{});
  EXPECT_FALSE(d.triggered);
  EXPECT_TRUE(d.observed.empty());
}

}  // namespace
}  // namespace memca::monitor
