#include "testbed/rubbos_testbed.h"

#include <cstdlib>
#include <string_view>

#include "common/check.h"
#include "metrics/names.h"

namespace memca::testbed {

const char* to_string(CloudProfile profile) {
  switch (profile) {
    case CloudProfile::kPrivateCloud:
      return "private-cloud";
    case CloudProfile::kAmazonEc2:
      return "amazon-ec2";
  }
  return "?";
}

const char* to_string(BottleneckKind kind) {
  switch (kind) {
    case BottleneckKind::kFifo:
      return "fifo";
    case BottleneckKind::kOltp:
      return "oltp";
  }
  return "?";
}

namespace {
/// Span-ring budget when the flight recorder is on and full tracing is off
/// (events, rounded up to a power-of-two number of 2,048-event chunks).
/// 2^16 events = 32 chunks = 2.5 MB covers tens of seconds of testbed
/// traffic — enough history to pin a multi-RTO VLRT request end to end.
constexpr std::size_t kFlightRingEvents = std::size_t{1} << 16;

cloud::HostSpec host_spec_for(CloudProfile profile) {
  return profile == CloudProfile::kPrivateCloud ? cloud::xeon_e5_2603_v3()
                                                : cloud::ec2_dedicated_node();
}
}  // namespace

RubbosTestbed::RubbosTestbed(TestbedConfig config)
    : config_(config), root_rng_(config.seed), profile_(workload::rubbos_profile()) {
  MEMCA_CHECK_MSG(config_.num_users > 0, "testbed needs users");
  // Environment override for A/B runs without touching the caller: any
  // consumer of this testbed can be flipped between the exact and cohort
  // client models per process.
  if (const char* env = std::getenv("MEMCA_CLIENT_MODE")) {
    const std::string_view mode(env);
    if (mode == "cohort") {
      config_.client_mode = workload::ClientMode::kCohort;
    } else if (mode == "exact") {
      config_.client_mode = workload::ClientMode::kExact;
    } else if (!mode.empty()) {
      MEMCA_CHECK_MSG(false, "MEMCA_CLIENT_MODE must be 'exact' or 'cohort'");
    }
  }
  // Same idiom for quantized service: MEMCA_SERVICE_QUANTUM=<µs> flips any
  // consumer of this testbed into grid-quantized batch-drain mode (0 = exact).
  if (const char* env = std::getenv("MEMCA_SERVICE_QUANTUM")) {
    const std::string_view text(env);
    if (!text.empty()) {
      char* end = nullptr;
      const long parsed = std::strtol(env, &end, 10);
      MEMCA_CHECK_MSG(end != nullptr && *end == '\0' && parsed >= 0,
                      "MEMCA_SERVICE_QUANTUM must be a non-negative integer (µs)");
      config_.service_quantum_us = static_cast<std::uint32_t>(parsed);
    }
  }
  MEMCA_CHECK_MSG(config_.target_tier >= 0 && config_.target_tier < 3,
                  "target tier must name one of the three tiers");
  MEMCA_CHECK_MSG(config_.background_neighbors >= 0, "neighbor count must be non-negative");

  // The quantum is chain-wide (demands quantize once, in the shared staging
  // arena), so the system's tiers take the testbed-level knob and the
  // caller's tier configs must leave theirs unset.
  std::vector<queueing::TierConfig> tier_configs = {config_.apache, config_.tomcat,
                                                    config_.mysql};
  for (queueing::TierConfig& tier : tier_configs) {
    MEMCA_CHECK_MSG(tier.service_quantum_us == 0,
                    "a tier's service_quantum_us must stay 0; set "
                    "TestbedConfig::service_quantum_us instead");
    tier.service_quantum_us = config_.service_quantum_us;
  }

  // One dedicated host per tier (the paper's Fig. 8 topology).
  for (std::size_t i = 0; i < tier_configs.size(); ++i) {
    hosts_.push_back(std::make_unique<cloud::Host>(host_spec_for(config_.cloud)));
    const cloud::VmId vm = hosts_.back()->add_vm(
        cloud::VmSpec{tier_configs[i].name + "-vm", tier_configs[i].workers,
                      cloud::Placement::kPinnedPackage, 0});
    if (static_cast<int>(i) == config_.target_tier) target_vm_ = vm;
  }
  // The adversary rents a VM co-located on the target tier's host, same
  // package — the co-location step itself is out of scope (Section II-B).
  adversary_vm_ = target_host().add_vm(cloud::VmSpec{
      "adversary-vm", config_.adversary_vcpus, cloud::Placement::kPinnedPackage, 0});
  // Optional multi-tenant noise on the same host.
  for (int i = 0; i < config_.background_neighbors; ++i) {
    const cloud::VmId vm = target_host().add_vm(cloud::VmSpec{
        "neighbor-" + std::to_string(i), 1, cloud::Placement::kPinnedPackage, 0});
    neighbors_.push_back(std::make_unique<cloud::NoisyNeighbor>(
        sim_, target_host(), vm, cloud::NoisyNeighborConfig{},
        root_rng_.fork("neighbor-" + std::to_string(i))));
  }

  // The OLTP bottleneck swaps the target tier for the lock-table variant
  // through the factory hook; every other tier (and the whole system when
  // the bottleneck is FIFO) takes the nullptr fallback, so the default
  // topology is built by the exact same code path as before. The OLTP
  // tier's sampling draws come from its own forked stream, so enabling it
  // never perturbs the clients' or neighbors' draws.
  queueing::TierFactory factory;
  if (config_.bottleneck == BottleneckKind::kOltp) {
    factory = [this](Simulator& sim, queueing::RequestPool& pool,
                     const queueing::TierConfig& tier_config,
                     std::size_t index) -> std::unique_ptr<queueing::TierServer> {
      if (static_cast<int>(index) != config_.target_tier) return nullptr;
      auto tier = std::make_unique<oltp::OltpTierServer>(
          sim, pool, tier_config, index, config_.oltp, root_rng_.fork("oltp"));
      oltp_tier_ = tier.get();
      return tier;
    };
  }
  system_ = std::make_unique<queueing::NTierSystem>(sim_, tier_configs, factory);
  MEMCA_CHECK_MSG(system_->satisfies_condition1(),
                  "testbed calibration must satisfy Condition 1");

  if (config_.trace) {
    trace_ = std::make_unique<trace::TraceRecorder>();
  } else if (config_.flightrec) {
    // Flight-recorder mode: same hooks, a bounded store instead of the
    // unbounded debug one — always-on memory stays fixed.
    trace_ = std::make_unique<trace::TraceRecorder>(
        trace::TraceRecorder::Config{kFlightRingEvents});
  }
  if (trace_ != nullptr) system_->set_trace(trace_.get());

  if (config_.metrics) {
    registry_ = std::make_unique<metrics::Registry>();
    log_counter_ = std::make_unique<ScopedLogCounter>();
    for (std::size_t i = 0; i < system_->num_tiers(); ++i) {
      const std::string& name = system_->tier(i).name();
      // The tier probes read the telemetry clock's frame: the scrape runs
      // inside the clock's tick, right after the frame is read. Utilization
      // is the frame's window average, stamped at the scrape instant (the
      // window *end*).
      registry_->probe(metrics::names::kTierQueueLength, {{"tier", name}}, [this, i] {
        return static_cast<double>(clock_->frame().resident[i]);
      });
      registry_->probe(metrics::names::kTierUtilization, {{"tier", name}},
                       [this, i] { return clock_->frame().utilization[i]; });
    }
    if (oltp_tier_ != nullptr) {
      registry_->probe(metrics::names::kOltpLockWaiters, {}, [this] {
        return static_cast<double>(oltp_tier_->lock_table().waiters());
      });
    }
  }

  // Cross-resource coupling: target-host memory contention throttles the
  // target tier's service speed (C_on = D * C_off).
  cloud::CrossResourceParams coupling_params;
  coupling_params.victim_demand_gbps = config_.target_bandwidth_demand_gbps;
  coupling_ = std::make_unique<cloud::CrossResourceModel>(target_host(), target_vm_,
                                                          coupling_params);
  coupling_->on_multiplier_change(
      [this](double multiplier) { target_tier().set_speed_multiplier(multiplier); });
  if (registry_ != nullptr) {
    registry_->probe(metrics::names::kCapacityMultiplier, {},
                     [this] { return clock_->frame().capacity_multiplier; });
  }

  router_ = std::make_unique<workload::RequestRouter>(*system_);

  workload::ClientConfig client_config;
  client_config.num_users = config_.num_users;
  client_config.stats_warmup = config_.stats_warmup;
  client_config.mode = config_.client_mode;
  client_config.record_response_series = config_.record_response_series;
  clients_ = std::make_unique<workload::ClosedLoopClients>(
      sim_, *router_, profile_, client_config, root_rng_.fork("clients"));
  if (trace_ != nullptr) clients_->set_trace(trace_.get());

  if (config_.flightrec) {
    flightrec::FlightRecorderConfig fc;
    fc.depth = system_->num_tiers();
    flight_ = std::make_unique<flightrec::FlightRecorder>(trace_.get(), fc);
    for (std::size_t i = 0; i < system_->num_tiers(); ++i) {
      flight_->set_tier_residence_source(i, &system_->tier(i).residence_time());
    }
    flight_->set_client_latency_source(&clients_->response_times());
    clients_->set_completion_observer([this](const workload::CompletionEvent& ev) {
      flight_->on_completion(ev.now, ev.first_sent, ev.user, ev.rt, ev.post_warmup);
    });
  }

  // One telemetry clock: every tick reads each tier, the coupling and the
  // clients once, appends the monitor series, then scrapes the registry and
  // feeds the flight recorder from that one frame.
  clock_ = std::make_unique<monitor::TelemetryClock>(
      sim_, *system_, static_cast<std::size_t>(config_.target_tier), config_.fine_granularity,
      coupling_.get(), clients_.get());
  clock_->on_frame([this](const monitor::TelemetryFrame& frame) {
    if (registry_ != nullptr) registry_->scrape(frame.now);
    if (flight_ != nullptr) flight_->tick(frame);
  });
}

void RubbosTestbed::start() {
  MEMCA_CHECK_MSG(!started_, "testbed already started");
  started_ = true;
  clients_->start();
  clock_->start();
  for (auto& neighbor : neighbors_) neighbor->start();
}

RubbosTestbed::~RubbosTestbed() {
  // Destroying a NoisyNeighbor clears its memory activity, which re-notifies
  // the host and can fire the speed-coupling callback into target_tier().
  // Members are destroyed in reverse declaration order — the system would
  // already be gone — so tear the neighbors down first, while the whole
  // host -> coupling -> tier chain is still alive.
  neighbors_.clear();
}

cloud::Host& RubbosTestbed::host(std::size_t tier) {
  MEMCA_CHECK(tier < hosts_.size());
  return *hosts_[tier];
}

std::unique_ptr<core::MemcaAttack> RubbosTestbed::make_attack(core::MemcaConfig config) {
  auto attack = std::make_unique<core::MemcaAttack>(
      sim_, target_host(), adversary_vm_, *router_, std::move(config),
      root_rng_.fork("memca"));
  if (trace_ != nullptr) attack->program().set_trace(trace_.get());
  if (registry_ != nullptr) {
    // The probe references the attack: the caller owns it and must keep it
    // alive for as long as the testbed's simulator runs (every consumer
    // already does — the attack drives the scenario).
    const cloud::MemoryAttackProgram& program = attack->program();
    registry_->probe(metrics::names::kAttackOn, {},
                     [&program] { return program.running() ? 1.0 : 0.0; });
  }
  return attack;
}

void RubbosTestbed::finalize_metrics(const core::MemcaAttack* attack) {
  // Close a still-open incident window first so the counters below (and any
  // later incident export) see the complete run.
  if (flight_ != nullptr) flight_->finalize();
  if (registry_ == nullptr) return;
  // Each layer keeps the only count of its events; the registry takes the
  // run's totals here. A warm sweep world registers them after its capture,
  // so rollback truncates them like the engine totals below.
  for (std::size_t i = 0; i < system_->num_tiers(); ++i) {
    const queueing::TierServer& tier = system_->tier(i);
    auto total = [&](const char* event, std::int64_t value) {
      registry_->counter(metrics::names::kTierRequestsTotal,
                         {{"tier", tier.name()}, {"event", event}})
          .set_to(value);
    };
    total("offered", tier.offered());
    total("admitted", tier.admitted());
    total("rejected", tier.rejected());
    total("completed", tier.completed());
  }
  if (oltp_tier_ != nullptr) {
    auto txn = [&](const char* event, std::int64_t value) {
      registry_->counter(metrics::names::kOltpTxnTotal, {{"event", event}}).set_to(value);
    };
    txn("commits", oltp_tier_->commits());
    txn("aborts", oltp_tier_->aborts());
    txn("lock_waits", oltp_tier_->lock_waits());
    registry_->histogram(metrics::names::kOltpLockWaitUs).set_to(oltp_tier_->lock_wait_time());
    registry_->histogram(metrics::names::kOltpLockHoldUs).set_to(oltp_tier_->lock_hold_time());
  }
  auto requests = [&](const char* event, std::int64_t value) {
    registry_->counter(metrics::names::kRequestsTotal, {{"event", event}}).set_to(value);
  };
  requests("submitted", clients_->submitted());
  requests("completed", clients_->completed());
  requests("dropped", clients_->dropped_attempts());
  // Every drop either schedules a retransmission or abandons the request.
  requests("retransmitted", clients_->dropped_attempts() - clients_->failed());
  requests("failed", clients_->failed());
  registry_->histogram(metrics::names::kClientResponseTimeUs)
      .set_to(clients_->response_times());
  registry_->counter(metrics::names::kEngineEventsTotal)
      .set_to(static_cast<std::int64_t>(sim_.events_executed()));
  registry_->counter(metrics::names::kEnginePoolSlots)
      .set_to(static_cast<std::int64_t>(sim_.pool_slots()));
  registry_->counter(metrics::names::kEnginePendingHighWater)
      .set_to(static_cast<std::int64_t>(sim_.pending_high_water()));
  registry_->counter(metrics::names::kSimTimeUs).set_to(sim_.now());
  if (attack != nullptr) {
    registry_->counter(metrics::names::kAttackBurstsTotal)
        .set_to(attack->scheduler().bursts_fired());
    registry_->counter(metrics::names::kAttackOnTimeUs)
        .set_to(attack->program().total_on_time());
  }
  registry_->counter(metrics::names::kLogMessagesTotal, {{"level", "warn"}})
      .set_to(log_counter_->warnings());
  registry_->counter(metrics::names::kLogMessagesTotal, {{"level", "error"}})
      .set_to(log_counter_->errors());
  if (flight_ != nullptr) {
    registry_->counter(metrics::names::kFlightrecIncidentsTotal)
        .set_to(flight_->incidents_total());
    registry_->counter(metrics::names::kFlightrecAffectedTotal)
        .set_to(flight_->affected_requests_total());
    // Self-profile: the volume the always-on observability plane processed
    // (multiply by perf_microbench's BM_TraceRecorderRingRecord per-op cost
    // for the overhead estimate).
    if (trace_ != nullptr) {
      registry_->gauge(metrics::names::kEngineSelfprofile, {{"component", "ring_events"}})
          .set(static_cast<double>(trace_->total_recorded()));
      registry_->gauge(metrics::names::kEngineSelfprofile, {{"component", "ring_bytes"}})
          .set(static_cast<double>(trace_->bytes_retained()));
    }
    registry_->gauge(metrics::names::kEngineSelfprofile, {{"component", "pinned_events"}})
        .set(static_cast<double>(flight_->pinned_events_total()));
  }
}

std::unique_ptr<metrics::Registry> RubbosTestbed::release_metrics() {
  return std::move(registry_);
}

void RubbosTestbed::snapshot() {
  if (world_snapshot_ == nullptr) {
    world_snapshot_ = std::make_unique<snapshot::WorldSnapshot>();
    snapshot::WorldSnapshot& ws = *world_snapshot_;
    // The simulator first: everything else's EventHandles round-trip as
    // values and resolve against the arena occupancy it restores.
    ws.attach(sim_);
    for (auto& host : hosts_) ws.attach(*host);
    ws.attach(*coupling_);
    for (auto& neighbor : neighbors_) ws.attach(*neighbor);
    if (trace_ != nullptr) ws.attach(*trace_);
    if (flight_ != nullptr) ws.attach(*flight_);
    if (registry_ != nullptr) ws.attach(*registry_);
    if (log_counter_ != nullptr) ws.attach(*log_counter_);
    ws.attach(*system_);
    // NTierSystem captures every tier's base state; the OLTP extension
    // (lock table, transaction lanes, sampler stream) attaches separately.
    if (oltp_tier_ != nullptr) ws.attach(*oltp_tier_);
    ws.attach(*router_);
    ws.attach(*clients_);
    ws.attach(*clock_);
    ws.attach_value(started_);
  }
  world_snapshot_->capture();
}

void RubbosTestbed::rollback() {
  MEMCA_CHECK_MSG(has_snapshot(), "rollback() needs a prior snapshot()");
  MEMCA_CHECK_MSG(registry_ != nullptr || !config_.metrics,
                  "metrics registry was released; the snapshot references it");
  world_snapshot_->rollback();
}

std::vector<std::string> RubbosTestbed::tier_names() const {
  return {config_.apache.name, config_.tomcat.name, config_.mysql.name};
}

std::vector<core::TierModelParams> RubbosTestbed::model_params() const {
  // λ_i in the paper is the traffic *terminating* at tier i. In the RUBBoS
  // workload every request traverses all three tiers, so all legitimate
  // traffic terminates at MySQL: λ_mysql = N / Z (closed-loop approximation
  // with think time Z), upstream λ_i = 0.
  const double lambda =
      static_cast<double>(config_.num_users) / to_seconds(profile_.think_time_mean);
  auto capacity = [this](const queueing::TierConfig& tier, std::size_t index) {
    return static_cast<double>(tier.workers) * 1e6 / profile_.mean_demand_us(index);
  };
  std::vector<core::TierModelParams> params(3);
  params[0] = {static_cast<double>(config_.apache.threads), capacity(config_.apache, 0), 0.0};
  params[1] = {static_cast<double>(config_.tomcat.threads), capacity(config_.tomcat, 1), 0.0};
  params[2] = {static_cast<double>(config_.mysql.threads), capacity(config_.mysql, 2), lambda};
  return params;
}

}  // namespace memca::testbed
