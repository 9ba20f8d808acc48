#include "defense/online_detector.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "monitor/cusum.h"

namespace memca::defense {
namespace {

TEST(OnlineCusum, LearnsBaselineThenWatches) {
  monitor::OnlineCusum cusum;
  for (int i = 0; i < 30; ++i) {
    EXPECT_FALSE(cusum.update(0.5));
    EXPECT_FALSE(cusum.alarmed());
  }
  EXPECT_TRUE(cusum.baseline_ready());
  EXPECT_NEAR(cusum.baseline(), 0.5, 1e-12);
}

TEST(OnlineCusum, FiresOnSustainedShift) {
  monitor::OnlineCusum cusum;
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
  monitor::OnlineCusum cusum;
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) cusum.update(rng.normal(0.5, 0.03));
  EXPECT_FALSE(cusum.alarmed());
}

TEST(OnlineCusum, UpdateKeepsReturningTrueAfterAlarm) {
  monitor::OnlineCusum cusum;
  for (int i = 0; i < 30; ++i) cusum.update(0.3);
  for (int i = 0; i < 50; ++i) cusum.update(0.9);
  EXPECT_TRUE(cusum.alarmed());
  EXPECT_TRUE(cusum.update(0.3));  // still alarmed even if signal subsides
}

TEST(OnlineCusum, ResetRelearnsBaseline) {
  monitor::OnlineCusum cusum;
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
}  // namespace memca::defense
