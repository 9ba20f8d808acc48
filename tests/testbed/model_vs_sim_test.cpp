// Validates the analytic attack model (Eq. 4–10) against the discrete-event
// simulation on the shared RUBBoS calibration: the equations should predict
// the simulated fill times, drop fraction and millibottleneck length to
// first order. Tolerances are loose (the model ignores service-time
// variance, in-flight work and concurrency overhead — deliberately, as the
// paper does).
#include <gtest/gtest.h>

#include "core/analytic_model.h"
#include "testbed/rubbos_testbed.h"

namespace memca::testbed {
namespace {

struct AttackRun {
  double measured_d = 1.0;
  double drop_fraction = 0.0;
  double mean_fill_to_full_s = 0.0;  // burst start -> front tier full
  double mean_saturation_s = 0.0;    // contiguous MySQL CPU saturation
  core::AttackModelOutputs model;
};

AttackRun run_attack(SimTime burst_length, SimTime interval) {
  RubbosTestbed bed;
  bed.start();

  // Fine (5 ms) gauge on the front tier to time cross-tier fill-up.
  TimeSeries front_gauge;
  PeriodicTask front_tick(bed.sim(), msec(5), [&] {
    front_gauge.append(bed.sim().now(), static_cast<double>(bed.system().tier(0).resident()));
  });

  core::MemcaConfig config;
  config.enable_controller = false;
  config.params.burst_length = burst_length;
  config.params.burst_interval = interval;
  auto attack = bed.make_attack(config);
  attack->start();
  bed.sim().run_for(0);  // let the first burst switch the multiplier on
  AttackRun run;
  run.measured_d = bed.coupling().capacity_multiplier();
  bed.sim().run_for(3 * kMinute);
  attack->stop();

  // Measured drop fraction among all client attempts.
  const double attempts = static_cast<double>(bed.clients().completed() +
                                              bed.clients().dropped_attempts());
  run.drop_fraction = static_cast<double>(bed.clients().dropped_attempts()) / attempts;

  // Mean time from burst start to a full front tier.
  const auto& windows = attack->program().windows();
  const auto& gauge = front_gauge.samples();
  double fill_sum = 0.0;
  int fill_count = 0;
  const double full = static_cast<double>(bed.config().apache.threads);
  for (const auto& w : windows) {
    for (const Sample& s : gauge) {
      if (s.time < w.start) continue;
      if (s.time > w.start + interval) break;
      if (s.value >= full) {
        fill_sum += to_seconds(s.time - w.start);
        ++fill_count;
        break;
      }
    }
  }
  if (fill_count > 0) run.mean_fill_to_full_s = fill_sum / fill_count;

  // Mean contiguous MySQL CPU saturation length (the millibottleneck).
  const auto& cpu = bed.target_cpu().series().samples();
  double sat_sum = 0.0;
  int sat_runs = 0;
  int run_len = 0;
  for (const Sample& s : cpu) {
    if (s.value > 0.98) {
      ++run_len;
    } else if (run_len > 0) {
      sat_sum += static_cast<double>(run_len) * 0.05;
      ++sat_runs;
      run_len = 0;
    }
  }
  if (sat_runs > 0) run.mean_saturation_s = sat_sum / sat_runs;

  // The matching analytic prediction, using the measured D.
  core::AttackModelInputs inputs;
  inputs.tiers = bed.model_params();
  inputs.degradation_index = run.measured_d;
  inputs.burst_length = burst_length;
  inputs.burst_interval = interval;
  run.model = core::evaluate_attack_model(inputs);
  return run;
}

TEST(ModelVsSim, PaperParametersFillTime) {
  const AttackRun run = run_attack(msec(500), sec(std::int64_t{2}));
  ASSERT_TRUE(run.model.condition2);
  ASSERT_GT(run.mean_fill_to_full_s, 0.0);
  // Cross-tier fill-up: model vs simulation within 40%.
  EXPECT_NEAR(run.mean_fill_to_full_s / run.model.total_fill_time_s, 1.0, 0.4);
}

TEST(ModelVsSim, PaperParametersDropFraction) {
  const AttackRun run = run_attack(msec(500), sec(std::int64_t{2}));
  ASSERT_GT(run.model.rho, 0.0);
  // Requests dropped ~ those arriving during hold-on: within 50% of rho.
  EXPECT_NEAR(run.drop_fraction / run.model.rho, 1.0, 0.5);
}

TEST(ModelVsSim, PaperParametersMillibottleneck) {
  const AttackRun run = run_attack(msec(500), sec(std::int64_t{2}));
  ASSERT_GT(run.mean_saturation_s, 0.0);
  // Saturation period ~ L + drain (Eq. 10), within 30%.
  EXPECT_NEAR(run.mean_saturation_s / run.model.millibottleneck_s, 1.0, 0.3);
  // And comfortably sub-second: the stealth property.
  EXPECT_LT(run.mean_saturation_s, 1.0);
}

TEST(ModelVsSim, ShortBurstCausesNoDrops) {
  // A burst shorter than the fill time never reaches hold-on (Eq. 7): the
  // model predicts rho = 0 and the simulation should drop (almost) nothing.
  const AttackRun run = run_attack(msec(80), sec(std::int64_t{2}));
  EXPECT_DOUBLE_EQ(run.model.damage_period_s, 0.0);
  EXPECT_LT(run.drop_fraction, 0.01);
}

TEST(ModelVsSim, LongerBurstsScaleDamage) {
  const AttackRun short_run = run_attack(msec(400), sec(std::int64_t{2}));
  const AttackRun long_run = run_attack(msec(700), sec(std::int64_t{2}));
  EXPECT_GT(long_run.model.rho, short_run.model.rho);
  EXPECT_GT(long_run.drop_fraction, short_run.drop_fraction);
}

}  // namespace
}  // namespace memca::testbed
