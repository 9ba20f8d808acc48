#include "workload/openloop.h"

#include "common/check.h"
#include "workload/backoff.h"

namespace memca::workload {

OpenLoopSource::OpenLoopSource(Simulator& sim, RequestRouter& router, WorkloadProfile profile,
                               OpenLoopConfig config, Rng rng)
    : sim_(sim),
      router_(router),
      profile_(std::move(profile)),
      chain_(profile_.transitions, profile_.initial),
      config_(config),
      rng_(std::move(rng)) {
  MEMCA_CHECK_MSG(config_.rate_per_sec > 0.0, "arrival rate must be positive");
  MEMCA_CHECK_MSG(backoff_fits(config_.min_rto, config_.max_retries),
                  "need min_rto > 0, max_retries >= 0 and backoffs that fit SimTime");
  profile_.validate();
  MEMCA_CHECK_MSG(profile_.num_tiers() == router_.depth(),
                  "profile tier count must match the target system");
  source_ = router_.register_source([this](const queueing::Request& r) { on_complete(r); },
                                    [this](const queueing::Request& r) { on_drop(r); });
}

void OpenLoopSource::start() {
  MEMCA_CHECK_MSG(!running_, "source already running");
  running_ = true;
  markov_state_ = chain_.initial_state(rng_);
  schedule_next_arrival();
}

void OpenLoopSource::stop() {
  running_ = false;
  next_arrival_.cancel();
}

void OpenLoopSource::schedule_next_arrival() {
  const double mean_gap_us = 1e6 / config_.rate_per_sec;
  const auto gap = static_cast<SimTime>(rng_.exponential(mean_gap_us));
  next_arrival_ = sim_.schedule_in(gap, [this] {
    if (!running_) return;
    markov_state_ = chain_.next(markov_state_, rng_);
    ++generated_;
    send_request(markov_state_, sim_.now(), 0);
    schedule_next_arrival();
  });
}

void OpenLoopSource::send_request(int page, SimTime first_sent, int attempt) {
  auto req = router_.make_request(source_);
  req->user = -1;
  req->page_class = page;
  req->set_attempt(attempt);
  req->set_first_sent(first_sent);
  req->set_sent(sim_.now());
  profile_.sample_demands_into(page, rng_, req->demand_us);
  router_.submit(req);
}

void OpenLoopSource::on_complete(const queueing::Request& req) {
  ++completed_;
  const SimTime rt = sim_.now() - req.first_sent();
  if (sim_.now() >= config_.stats_warmup) {
    response_times_.record(rt);
    response_series_.append(sim_.now(), static_cast<double>(rt));
  }
}

void OpenLoopSource::on_drop(const queueing::Request& req) {
  ++dropped_attempts_;
  if (!config_.retransmit || req.attempt() >= config_.max_retries) {
    ++failed_;
    return;
  }
  const SimTime rto = rto_backoff(config_.min_rto, req.attempt());
  const int page = req.page_class;
  const SimTime first_sent = req.first_sent();
  const int next_attempt = req.attempt() + 1;
  sim_.schedule_in(rto, [this, page, first_sent, next_attempt] {
    send_request(page, first_sent, next_attempt);
  });
}

}  // namespace memca::workload
