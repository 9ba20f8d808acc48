#include "workload/prober.h"

#include <algorithm>

#include "common/check.h"
#include "workload/backoff.h"

namespace memca::workload {

Prober::Prober(Simulator& sim, RequestRouter& router, ProberConfig config, Rng rng)
    : sim_(sim), router_(router), config_(std::move(config)), rng_(std::move(rng)) {
  MEMCA_CHECK_MSG(config_.period > 0, "probe period must be positive");
  MEMCA_CHECK_MSG(backoff_fits(config_.min_rto, config_.max_retries),
                  "need min_rto > 0, max_retries >= 0 and backoffs that fit SimTime");
  MEMCA_CHECK_MSG(config_.demand_us.size() == router_.depth(),
                  "probe demand must cover every tier");
  source_ = router_.register_source(
      [this](const queueing::Request& r) {
        record(sim_.now() - r.first_sent(), r.attempt() > 0);
      },
      [this](const queueing::Request& r) {
        ++dropped_;
        if (r.attempt() >= config_.max_retries) {
          record(config_.drop_penalty, true);
          return;
        }
        const SimTime rto = rto_backoff(config_.min_rto, r.attempt());
        const SimTime first_sent = r.first_sent();
        const int next_attempt = r.attempt() + 1;
        sim_.schedule_in(rto, [this, first_sent, next_attempt] {
          transmit(first_sent, next_attempt);
        });
      });
}

void Prober::start() {
  MEMCA_CHECK_MSG(task_ == nullptr, "prober already started");
  task_ = std::make_unique<PeriodicTask>(
      sim_, config_.period, [this] { send_probe(); }, /*fire_immediately=*/true);
}

void Prober::stop() {
  if (task_) task_->stop();
}

void Prober::send_probe() {
  ++sent_;
  transmit(sim_.now(), 0);
}

void Prober::transmit(SimTime first_sent, int attempt) {
  auto req = router_.make_request(source_);
  req->page_class = -1;
  req->set_attempt(attempt);
  req->set_first_sent(first_sent);
  req->set_sent(sim_.now());
  // Slight jitter around the nominal demand so probes are not bit-identical.
  req->demand_us.reserve(config_.demand_us.size());
  for (double d : config_.demand_us) req->demand_us.push_back(rng_.exponential(d));
  router_.submit(req);
}

void Prober::record(SimTime rt, bool dropped) {
  window_.push_back(Observation{sim_.now(), rt, dropped});
  while (window_.size() > config_.window_capacity) window_.pop_front();
  series_.append(sim_.now(), static_cast<double>(rt));
}

SimTime Prober::quantile_in_window(double q, SimTime window) const {
  MEMCA_CHECK(q >= 0.0 && q <= 1.0);
  const SimTime cutoff = sim_.now() - window;
  std::vector<SimTime> rts;
  for (const Observation& o : window_) {
    if (o.time >= cutoff) rts.push_back(o.rt);
  }
  if (rts.empty()) return 0;
  std::sort(rts.begin(), rts.end());
  const auto rank = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(rts.size()) - 1.0,
                       std::ceil(q * static_cast<double>(rts.size())) - 1.0));
  return rts[std::max<std::size_t>(rank, 0)];
}

double Prober::mean_in_window(SimTime window) const {
  const SimTime cutoff = sim_.now() - window;
  double sum = 0.0;
  std::size_t n = 0;
  for (const Observation& o : window_) {
    if (o.time >= cutoff) {
      sum += static_cast<double>(o.rt);
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

std::size_t Prober::observations_in_window(SimTime window) const {
  const SimTime cutoff = sim_.now() - window;
  std::size_t n = 0;
  for (const Observation& o : window_) {
    if (o.time >= cutoff) ++n;
  }
  return n;
}

std::size_t Prober::drops_in_window(SimTime window) const {
  const SimTime cutoff = sim_.now() - window;
  std::size_t n = 0;
  for (const Observation& o : window_) {
    if (o.time >= cutoff && o.dropped) ++n;
  }
  return n;
}

}  // namespace memca::workload
