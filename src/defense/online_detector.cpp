#include "defense/online_detector.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace memca::defense {

OnlineBurstScore::OnlineBurstScore(OnlineBurstScoreConfig config) : config_(config) {
  MEMCA_CHECK_MSG(config_.alpha > 0.0 && config_.alpha <= 1.0, "alpha must be in (0, 1]");
}

void OnlineBurstScore::update(double value) {
  ++seen_;
  if (seen_ == 1) {
    level_ = value;
    deviation_ = 0.0;
    return;
  }
  deviation_ = (1.0 - config_.alpha) * deviation_ + config_.alpha * std::abs(value - level_);
  level_ = (1.0 - config_.alpha) * level_ + config_.alpha * value;
}

double OnlineBurstScore::score() const {
  if (seen_ < 2) return 0.0;
  const double denom = std::max(level_, 1e-9);
  return deviation_ / denom;
}

}  // namespace memca::defense
