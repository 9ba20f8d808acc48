#include "cloud/contention.h"

#include <algorithm>

#include "common/check.h"

namespace memca::cloud {

CrossResourceModel::CrossResourceModel(Host& host, VmId victim, CrossResourceParams params)
    : host_(host), victim_(victim), params_(params) {
  MEMCA_CHECK_MSG(params_.victim_demand_gbps > 0.0, "victim demand must be positive");
  MEMCA_CHECK_MSG(params_.multiplier_floor > 0.0 && params_.multiplier_floor <= 1.0,
                  "multiplier floor must be in (0, 1]");
  host_.set_memory_activity(victim_, params_.victim_demand_gbps, 0.0);
  multiplier_ = compute_multiplier();
  host_.on_contention_change([this] {
    multiplier_ = compute_multiplier();
    for (const auto& fn : observers_) fn(multiplier_);
  });
}

double CrossResourceModel::compute_multiplier() const {
  const double achieved = host_.achieved_bandwidth(victim_);
  const double ratio = achieved / params_.victim_demand_gbps;
  return std::clamp(ratio, params_.multiplier_floor, 1.0);
}

void CrossResourceModel::on_multiplier_change(std::function<void(double)> fn) {
  MEMCA_CHECK(static_cast<bool>(fn));
  observers_.push_back(std::move(fn));
}

}  // namespace memca::cloud
