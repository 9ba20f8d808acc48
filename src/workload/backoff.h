// RFC 6298 retransmission backoff, shared by every client model.
//
// A dropped attempt `attempt` (0 = the first transmission) retransmits after
// min_rto * 2^attempt. The closed-loop clients, the open-loop source and the
// prober check their (min_rto, max_retries) with backoff_fits() when they are
// built, so every backoff they later compute fits SimTime and can be added
// to the current time without overflow.
#pragma once

#include <limits>

#include "common/time.h"

namespace memca::workload {

/// Largest backoff a client may arm: half of SimTime's range, leaving the
/// other half (about 146,000 simulated years) for the `now +`.
inline constexpr SimTime kMaxBackoff = std::numeric_limits<SimTime>::max() / 2;

/// True when min_rto is positive, max_retries non-negative, and the largest
/// backoff those retries arm (after attempt max_retries - 1) is at most
/// kMaxBackoff. With the 1 s floor that allows up to 43 retries.
constexpr bool backoff_fits(SimTime min_rto, int max_retries) {
  if (min_rto <= 0 || max_retries < 0) return false;
  if (max_retries == 0) return true;
  const int top = max_retries - 1;
  return top < 63 && min_rto <= (kMaxBackoff >> top);
}

/// The retransmission timeout armed after attempt `attempt` drops. Only
/// defined for settings backoff_fits() accepts and attempt < max_retries.
constexpr SimTime rto_backoff(SimTime min_rto, int attempt) {
  return min_rto * (SimTime{1} << attempt);
}

}  // namespace memca::workload
