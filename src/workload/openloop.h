// Open-loop Poisson request source.
//
// The paper's queueing model (Section IV-B) assumes Poisson arrivals of rate
// λ at each tier; this source realises that assumption for the model-
// validation experiments (Figs. 6 and 7), where a constant-rate stream makes
// fill-up/drain times directly comparable to Equations 4–10.
//
// Optionally applies the same TCP retransmission semantics as the closed-
// loop clients (Fig. 7c needs drops to turn into 1 s+ client latencies).
#pragma once

#include "common/histogram.h"
#include "common/rng.h"
#include "common/timeseries.h"
#include "sim/simulator.h"
#include "workload/markov.h"
#include "workload/profile.h"
#include "workload/router.h"

namespace memca::workload {

struct OpenLoopConfig {
  /// Mean arrival rate, requests per second.
  double rate_per_sec = 500.0;
  /// Retransmit dropped requests after an RFC 6298 RTO?
  bool retransmit = true;
  SimTime min_rto = sec(std::int64_t{1});
  int max_retries = 3;
  SimTime stats_warmup = 0;
};

class OpenLoopSource {
 public:
  /// NOTE: in-flight requests and pending retransmission timers reference
  /// this object; destroy it only after draining the simulator or calling
  /// stop() and running past the last RTO.
  OpenLoopSource(Simulator& sim, RequestRouter& router, WorkloadProfile profile,
                 OpenLoopConfig config, Rng rng);
  ~OpenLoopSource() { stop(); }
  OpenLoopSource(const OpenLoopSource&) = delete;
  OpenLoopSource& operator=(const OpenLoopSource&) = delete;

  /// Starts the Poisson arrival process.
  void start();
  /// Stops generating new arrivals (in-flight requests still complete).
  void stop();

  /// Client-observed response times (first send -> completion), post-warmup.
  const LatencyHistogram& response_times() const { return response_times_; }
  const TimeSeries& response_series() const { return response_series_; }
  std::int64_t generated() const { return generated_; }
  std::int64_t completed() const { return completed_; }
  std::int64_t dropped_attempts() const { return dropped_attempts_; }
  std::int64_t failed() const { return failed_; }

 private:
  void schedule_next_arrival();
  void send_request(int page, SimTime first_sent, int attempt);
  void on_complete(const queueing::Request& req);
  void on_drop(const queueing::Request& req);

  Simulator& sim_;
  RequestRouter& router_;
  WorkloadProfile profile_;
  MarkovChain chain_;
  OpenLoopConfig config_;
  Rng rng_;
  int source_ = -1;
  bool running_ = false;
  /// The pending exponential-gap arrival (one self-rescheduling event).
  EventHandle next_arrival_;
  int markov_state_ = 0;

  LatencyHistogram response_times_;
  TimeSeries response_series_;
  std::int64_t generated_ = 0;
  std::int64_t completed_ = 0;
  std::int64_t dropped_attempts_ = 0;
  std::int64_t failed_ = 0;

 public:
  /// Checkpoint of the arrival process. The next-arrival handle round-trips
  /// as a value: the simulator's own restore revives the same (slot, seq)
  /// occupancy, so the handle resolves to the identical pending event.
  struct Snapshot {
    Rng rng{0};
    bool running = false;
    EventHandle next_arrival;
    int markov_state = 0;
    LatencyHistogram response_times;
    std::size_t response_series_size = 0;
    std::int64_t generated = 0;
    std::int64_t completed = 0;
    std::int64_t dropped_attempts = 0;
    std::int64_t failed = 0;
  };

  void capture(Snapshot& out) const {
    out.rng = rng_;
    out.running = running_;
    out.next_arrival = next_arrival_;
    out.markov_state = markov_state_;
    out.response_times = response_times_;
    out.response_series_size = response_series_.size();
    out.generated = generated_;
    out.completed = completed_;
    out.dropped_attempts = dropped_attempts_;
    out.failed = failed_;
  }

  void restore(const Snapshot& snap) {
    rng_ = snap.rng;
    running_ = snap.running;
    next_arrival_ = snap.next_arrival;
    markov_state_ = snap.markov_state;
    response_times_ = snap.response_times;
    response_series_.truncate(snap.response_series_size);
    generated_ = snap.generated;
    completed_ = snap.completed;
    dropped_attempts_ = snap.dropped_attempts;
    failed_ = snap.failed;
  }
};

}  // namespace memca::workload
