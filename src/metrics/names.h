// Canonical instrument names for the MemCA telemetry plane.
//
// Everything the testbed registers and the run-report builder reads is named
// here, so the producer (RubbosTestbed / AttackLab wiring) and the consumer
// (build_run_report) cannot drift apart. Follows Prometheus conventions:
// `_total` suffix on counters, base units in the name (`_us`). Counters and
// histograms are run totals, set at RubbosTestbed::finalize_metrics from the
// layer that counted them; probes are sampled into series on every
// telemetry tick.
#pragma once

#include <string_view>

namespace memca::metrics::names {

// -- client/workload layer (totals + one latency histogram) ----------------
/// Labeled {event=submitted|completed|dropped|retransmitted|failed}:
/// attempts sent (incl. retransmissions), completions, front-tier drops,
/// retransmissions scheduled, requests abandoned after max_retries.
inline constexpr std::string_view kRequestsTotal = "memca_requests_total";
/// End-to-end client response time distribution (post-warmup), µs.
inline constexpr std::string_view kClientResponseTimeUs = "memca_client_response_time_us";

// -- queueing layer (per-tier totals + probed series) ----------------------
/// Labeled {tier=<name>, event=offered|admitted|rejected|completed}.
inline constexpr std::string_view kTierRequestsTotal = "memca_tier_requests_total";
/// Labeled {tier=<name>}: requests resident in the tier (thread occupancy).
inline constexpr std::string_view kTierQueueLength = "memca_tier_queue_length";
/// Labeled {tier=<name>}: worker utilization in [0, 1] over the last
/// telemetry window (the clock's busy-time integral difference).
inline constexpr std::string_view kTierUtilization = "memca_tier_utilization";

// -- OLTP lock table (registered when the bottleneck tier is OLTP) ---------
/// Labeled {event=commits|aborts|lock_waits}: committed transactions,
/// NO_WAIT aborts (each is followed by a backoff + retry), and lock
/// acquisitions that had to wait or abort at least once.
inline constexpr std::string_view kOltpTxnTotal = "memca_oltp_txn_total";
/// Per-transaction stall time between first lock conflict and the final
/// grant, µs (one sample per transaction that ever waited).
inline constexpr std::string_view kOltpLockWaitUs = "memca_oltp_lock_wait_us";
/// Lock hold span per committed transaction: first grant → release, µs.
/// Stretches under a capacity dip — the convoy precursor.
inline constexpr std::string_view kOltpLockHoldUs = "memca_oltp_lock_hold_us";
/// Transactions currently parked in a record-lock waiter queue (probe).
inline constexpr std::string_view kOltpLockWaiters = "memca_oltp_lock_waiters";

// -- cloud/attack layer ----------------------------------------------------
/// Capacity multiplier D of the coupled target tier, in (0, 1].
inline constexpr std::string_view kCapacityMultiplier = "memca_capacity_multiplier";
/// 1 while the attack kernel is executing, else 0.
inline constexpr std::string_view kAttackOn = "memca_attack_on";
/// Bursts fired by the ON-OFF scheduler (synced at finalize).
inline constexpr std::string_view kAttackBurstsTotal = "memca_attack_bursts_total";
/// Total attack-kernel ON time, µs (synced at finalize).
inline constexpr std::string_view kAttackOnTimeUs = "memca_attack_on_time_us";

// -- flight recorder (memca_flightrec, synced at finalize) -----------------
/// Incidents the detector emitted (stored + overflowed past max_incidents).
inline constexpr std::string_view kFlightrecIncidentsTotal = "memca_flightrec_incidents_total";
/// Requests whose completion crossed the VLRT threshold inside incidents.
inline constexpr std::string_view kFlightrecAffectedTotal = "memca_flightrec_affected_requests_total";
/// Labeled {component=ring_bytes|ring_events|pinned_events}: always-on
/// observability self-profile — the volume the flight recorder processed
/// this run. Multiply by the per-op cost of BM_FlightRecorder for the
/// overhead estimate; the values themselves are deterministic, so merged
/// registry bytes stay a sweep-thread-invariance oracle.
inline constexpr std::string_view kEngineSelfprofile = "memca_engine_selfprofile";

// -- engine self-profile (synced at finalize) ------------------------------
inline constexpr std::string_view kEngineEventsTotal = "memca_engine_events_total";
inline constexpr std::string_view kEnginePoolSlots = "memca_engine_pool_slots";
inline constexpr std::string_view kEnginePendingHighWater = "memca_engine_pending_high_water";
/// Simulated clock at finalize, µs (duty cycles and rates divide by this).
inline constexpr std::string_view kSimTimeUs = "memca_sim_time_us";

// -- logging ---------------------------------------------------------------
/// Labeled {level=warn|error}: lines this run emitted past the level filter.
inline constexpr std::string_view kLogMessagesTotal = "memca_log_messages_total";

}  // namespace memca::metrics::names
