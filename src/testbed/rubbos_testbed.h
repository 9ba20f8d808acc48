// One-call construction of the paper's full evaluation scenario (Fig. 8):
//
//   3 hosts, one per tier; the host of the *target tier* (MySQL by default)
//   additionally carries the co-located adversary VM and, optionally,
//   noisy-neighbor tenant VMs. A CrossResourceModel couples that host's
//   memory contention into the target tier's service speed. 3500
//   closed-loop RUBBoS users drive the 3-tier system; one fine-grained
//   (50 ms) telemetry clock reads every tier once per tick and feeds the
//   target tier's CPU utilization and per-tier queue-length monitors, the
//   metrics scrape and the flight recorder from that one frame.
//
// Used by the examples, the figure benches and the integration tests, so
// every consumer sees the same calibration.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cloud/background.h"
#include "cloud/contention.h"
#include "cloud/host.h"
#include "common/log.h"
#include "flightrec/flight_recorder.h"
#include "core/analytic_model.h"
#include "core/memca.h"
#include "metrics/registry.h"
#include "monitor/telemetry.h"
#include "oltp/oltp_tier.h"
#include "queueing/ntier.h"
#include "snapshot/world_snapshot.h"
#include "trace/recorder.h"
#include "workload/clients.h"
#include "workload/profile.h"
#include "workload/router.h"

namespace memca::testbed {

enum class CloudProfile {
  /// The paper's private OpenStack/KVM cloud (Xeon E5-2603 v3 hosts).
  kPrivateCloud,
  /// Amazon EC2 dedicated nodes (two ten-core E5-2680, c3.large VMs).
  kAmazonEc2,
};

const char* to_string(CloudProfile profile);

/// How the target (bottleneck) tier serves requests.
enum class BottleneckKind {
  /// The paper's model: exponential-service FIFO thread pool.
  kFifo,
  /// Lock/CC-aware OLTP variant: each request is a transaction taking
  /// Zipf-distributed record locks (see oltp::OltpTierServer).
  kOltp,
};

const char* to_string(BottleneckKind kind);

struct TestbedConfig {
  CloudProfile cloud = CloudProfile::kAmazonEc2;
  int num_users = 3500;
  /// Client population scheduling (see workload::ClientMode): kExact keeps
  /// the per-user reference model and its byte-stable event streams;
  /// kCohort batches statistically identical users into aggregate arrival
  /// draws — the only mode that scales to millions of users. Overridable
  /// per process with MEMCA_CLIENT_MODE=exact|cohort (applied at
  /// construction, like MEMCA_SWEEP_THREADS for the sweep runner).
  workload::ClientMode client_mode = workload::ClientMode::kExact;
  /// Keep the raw client (time, rt) response series (Fig. 9d and the
  /// defense ablation read it). Off by default: it grows with every
  /// completion, which is unbounded at population scale.
  bool record_response_series = false;
  /// Service-demand/completion quantum in µs, applied uniformly to all
  /// three tiers (0 = exact service, the byte-stable default). When set,
  /// sampled demands round onto the grid and each tier drains same-instant
  /// completion groups through one simulator event — the raw-speed lever
  /// for population-scale runs, validated against exact mode by the Fig. 2
  /// equivalence gate. Overridable per process with MEMCA_SERVICE_QUANTUM=<µs>
  /// (applied at construction, like MEMCA_CLIENT_MODE). This is the only
  /// way to set it: construction rejects a non-zero quantum on the tier
  /// configs below.
  std::uint32_t service_quantum_us = 0;
  /// Tier thread limits and vCPUs (paper Condition 1: decreasing threads).
  queueing::TierConfig apache{"apache", 100, 8};
  queueing::TierConfig tomcat{"tomcat", 60, 6};
  queueing::TierConfig mysql{"mysql", 30, 2};
  /// Which tier the adversary co-locates with (2 = MySQL, the paper's
  /// setup; 0/1 for the target-position ablation).
  int target_tier = 2;
  /// Memory bandwidth the target tier's VM needs at full capacity, GB/s
  /// (sets how deep a memory attack cuts: D = achieved / needed).
  double target_bandwidth_demand_gbps = 12.0;
  /// vCPUs of the rented adversary VM (bus-saturation pressure scales with
  /// it; the lock kernel needs only one core).
  int adversary_vcpus = 1;
  /// Extra multi-tenant neighbor VMs on the target host, each running the
  /// default ON-OFF noisy memory workload (cloud::NoisyNeighborConfig{}).
  int background_neighbors = 0;
  /// Telemetry clock window (the paper's 50 ms tooling): the monitors, the
  /// metrics scrape and the flight recorder's timeline all tick at it.
  static constexpr SimTime fine_granularity = msec(50);
  /// Statistics warm-up: client RTs before this are discarded.
  SimTime stats_warmup = sec(std::int64_t{10});
  std::uint64_t seed = 42;
  /// Record a per-request span-event trace (memca_trace) for the whole run.
  /// Off by default: the recorder costs memory proportional to traffic.
  bool trace = false;
  /// Build a metrics registry (memca_metrics). Every telemetry tick
  /// scrapes its probes (per-tier queue length and utilization, capacity
  /// multiplier, attack on/off, OLTP lock waiters) into series;
  /// finalize_metrics() adds the run's request, tier and OLTP totals and
  /// latency histograms. Off by default.
  bool metrics = false;
  /// Service discipline of the target tier. kFifo leaves the paper's model
  /// (and its byte-exact streams) untouched; kOltp swaps in the
  /// contention-aware database tier configured by `oltp`.
  BottleneckKind bottleneck = BottleneckKind::kFifo;
  /// Transaction/lock-table profile, used only when bottleneck == kOltp.
  oltp::OltpConfig oltp;
  /// Always-on flight recorder (memca_flightrec): bounded span ring,
  /// high-resolution timeline and incident detection with the default
  /// flightrec::FlightRecorderConfig thresholds; its latency views are the
  /// clients' and tiers' own histograms. Off by default; cheap enough
  /// (< 5 % on the full testbed) to leave on in any production-style run.
  bool flightrec = false;

  bool operator==(const TestbedConfig&) const = default;
};

class RubbosTestbed {
 public:
  explicit RubbosTestbed(TestbedConfig config = {});
  ~RubbosTestbed();
  RubbosTestbed(const RubbosTestbed&) = delete;
  RubbosTestbed& operator=(const RubbosTestbed&) = delete;

  /// Starts clients, monitors and background neighbors. Call once, then run
  /// the simulator.
  void start();

  Simulator& sim() { return sim_; }
  queueing::NTierSystem& system() { return *system_; }
  workload::RequestRouter& router() { return *router_; }
  workload::ClosedLoopClients& clients() { return *clients_; }
  const workload::WorkloadProfile& profile() const { return profile_; }

  /// The host carrying the target-tier VM and the adversary VM.
  cloud::Host& target_host() { return *hosts_[static_cast<std::size_t>(config_.target_tier)]; }
  cloud::Host& host(std::size_t tier);
  cloud::VmId target_vm() const { return target_vm_; }
  cloud::VmId adversary_vm() const { return adversary_vm_; }
  queueing::TierServer& target_tier() {
    return system_->tier(static_cast<std::size_t>(config_.target_tier));
  }
  /// The OLTP view of the target tier; nullptr unless
  /// config.bottleneck == BottleneckKind::kOltp.
  oltp::OltpTierServer* oltp_tier() { return oltp_tier_; }
  const oltp::OltpTierServer* oltp_tier() const { return oltp_tier_; }
  cloud::CrossResourceModel& coupling() { return *coupling_; }

  /// Fine-grained target-tier CPU utilization (one sample per telemetry
  /// window, stamped at the window start).
  const monitor::Channel& target_cpu() const { return clock_->target_cpu(); }
  /// Fine-grained queue-length gauges, one per tier (front first).
  const monitor::Channel& queue_gauge(std::size_t tier) const {
    return clock_->queue_length(tier);
  }

  /// Builds a MemCA attack against this testbed (adversary VM + router
  /// already wired). Caller owns it.
  std::unique_ptr<core::MemcaAttack> make_attack(core::MemcaConfig config);

  /// Analytic-model inputs matching this calibration (for model-vs-sim
  /// comparisons): per-tier Q, C_OFF, λ.
  std::vector<core::TierModelParams> model_params() const;

  const TestbedConfig& config() const { return config_; }
  /// Fresh RNG stream derived from the testbed seed.
  Rng fork_rng(std::string_view label) const { return root_rng_.fork(label); }

  /// The span-event recorder: the whole-run arena when config.trace is
  /// set, the bounded ring when only config.flightrec is, else nullptr.
  /// Attacks built through make_attack share it (burst ON/OFF marks).
  trace::TraceRecorder* trace() { return trace_.get(); }
  const trace::TraceRecorder* trace() const { return trace_.get(); }

  /// The flight recorder, nullptr unless config.flightrec is set. Fed by
  /// the telemetry clock from start() on; call finalize_metrics() (or
  /// flight()->finalize()) after the run to close a still-open incident
  /// window.
  flightrec::FlightRecorder* flight() { return flight_.get(); }
  const flightrec::FlightRecorder* flight() const { return flight_.get(); }
  /// Display names of the three tiers, front first (exporter input).
  std::vector<std::string> tier_names() const;

  /// The metrics registry, nullptr unless config.metrics is set. Scraped on
  /// every telemetry tick from start() on.
  metrics::Registry* registry() { return registry_.get(); }
  const metrics::Registry* registry() const { return registry_.get(); }
  /// Sets the registry's end-of-run totals from the layers that counted
  /// them — tier offered/admitted/rejected/completed, client requests and
  /// response-time histogram, OLTP transactions and lock histograms, engine
  /// self-profile (events executed, callback-pool occupancy, event-queue
  /// high-water, sim clock), attack burst count and ON time when `attack`
  /// is given, and warn/error log-line tallies. Call once after the run,
  /// before building a run report or merging registries. No-op without
  /// metrics.
  void finalize_metrics(const core::MemcaAttack* attack = nullptr);
  /// Hands the registry to the caller (e.g. a sweep-cell result that must
  /// outlive the testbed); later telemetry ticks no longer scrape it. Null
  /// when metrics were off or already released.
  std::unique_ptr<metrics::Registry> release_metrics();

  /// Takes (or moves forward) an in-place checkpoint of the entire world:
  /// simulator event state, request pool, tiers, clients, hosts, telemetry
  /// clock, trace and metrics. Typically called after start() + a warm-up run.
  /// Objects created *after* the snapshot (an attack from make_attack, late
  /// probes/observers) must be destroyed before rolling back; their
  /// registrations are truncated away by rollback(). Do not release_metrics
  /// between a snapshot and its rollbacks.
  void snapshot();
  /// Rewinds the world to the last snapshot(), in place: every pointer and
  /// handle bound at capture time stays valid, and continuing the run
  /// produces byte-identical results to a fresh world driven to the same
  /// point. May be called repeatedly; never allocates.
  void rollback();
  bool has_snapshot() const {
    return world_snapshot_ != nullptr && world_snapshot_->captured();
  }

 private:
  TestbedConfig config_;
  Simulator sim_;
  Rng root_rng_;
  workload::WorkloadProfile profile_;

  std::vector<std::unique_ptr<cloud::Host>> hosts_;
  cloud::VmId target_vm_ = cloud::kInvalidVm;
  cloud::VmId adversary_vm_ = cloud::kInvalidVm;
  std::unique_ptr<cloud::CrossResourceModel> coupling_;
  std::vector<std::unique_ptr<cloud::NoisyNeighbor>> neighbors_;

  std::unique_ptr<trace::TraceRecorder> trace_;
  std::unique_ptr<flightrec::FlightRecorder> flight_;
  std::unique_ptr<metrics::Registry> registry_;
  /// Tallies warn/error lines this run emits (the testbed is built and run
  /// on one thread, so the scope sees exactly this cell's lines).
  std::unique_ptr<ScopedLogCounter> log_counter_;
  std::unique_ptr<queueing::NTierSystem> system_;
  /// Non-owning view into system_'s target tier when the bottleneck is OLTP.
  oltp::OltpTierServer* oltp_tier_ = nullptr;
  std::unique_ptr<workload::RequestRouter> router_;
  std::unique_ptr<workload::ClosedLoopClients> clients_;

  std::unique_ptr<monitor::TelemetryClock> clock_;
  std::unique_ptr<snapshot::WorldSnapshot> world_snapshot_;
  bool started_ = false;
};

}  // namespace memca::testbed
