// Streaming per-VM burstiness score for the defense pipeline.
//
// OnlineBurstScore is an exponentially-weighted estimate of how bursty a
// per-VM activity signal is (mean of |x - ewma|) normalised by its level;
// the defense controller uses it to rank co-located VMs when attributing an
// alarm to a suspect. An always-on neighbor scores low; an ON-OFF attacker
// scores high. (The alarm itself comes from monitor::OnlineCusum.)
#pragma once

#include <cstddef>

#include "common/time.h"

namespace memca::defense {

struct OnlineBurstScoreConfig {
  /// EWMA smoothing factor for the level estimate.
  double alpha = 0.1;
};

class OnlineBurstScore {
 public:
  explicit OnlineBurstScore(OnlineBurstScoreConfig config = {});

  void update(double value);

  /// Mean absolute deviation around the running level, normalised by the
  /// level (0 for a constant signal; ~1+ for hard ON-OFF patterns).
  double score() const;
  double level() const { return level_; }
  std::size_t samples_seen() const { return seen_; }

 private:
  OnlineBurstScoreConfig config_;
  std::size_t seen_ = 0;
  double level_ = 0.0;
  double deviation_ = 0.0;
};

}  // namespace memca::defense
