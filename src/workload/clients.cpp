#include "workload/clients.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "workload/backoff.h"

namespace memca::workload {

const char* to_string(ClientMode mode) {
  switch (mode) {
    case ClientMode::kExact:
      return "exact";
    case ClientMode::kCohort:
      return "cohort";
  }
  return "?";
}

ClosedLoopClients::ClosedLoopClients(Simulator& sim, RequestRouter& router,
                                     WorkloadProfile profile, ClientConfig config, Rng rng)
    : sim_(sim),
      router_(router),
      profile_(std::move(profile)),
      chain_(profile_.transitions, profile_.initial),
      config_(config),
      rng_(std::move(rng)),
      rto_(chain_.num_states()) {
  MEMCA_CHECK_MSG(config_.num_users > 0, "need at least one user");
  MEMCA_CHECK_MSG(backoff_fits(config_.min_rto, config_.max_retries),
                  "need min_rto > 0, max_retries >= 0 and backoffs that fit SimTime");
  profile_.validate();
  MEMCA_CHECK_MSG(profile_.num_tiers() == router_.depth(),
                  "profile tier count must match the target system");
  if (config_.mode == ClientMode::kExact) {
    user_page_.resize(static_cast<std::size_t>(config_.num_users), 0);
    user_busy_.resize(static_cast<std::size_t>(config_.num_users), 0);
  } else {
    MEMCA_CHECK_MSG(config_.cohort_tick > 0, "cohort tick must be positive");
    // A drop the system reports outside an agenda item parks min_rto ahead:
    // at or after the next tick, never before the armed agenda event.
    MEMCA_CHECK_MSG(config_.min_rto >= config_.cohort_tick,
                    "cohort mode needs min_rto >= cohort_tick: an RTO must not fall due "
                    "before the next think tick");
    // A parked user's id shares one 32-bit ledger word with its page class.
    MEMCA_CHECK_MSG(static_cast<std::uint64_t>(config_.num_users) <= rto_.max_users(),
                    "cohort mode needs num_users <= 2^(32 - page_bits), where page_bits "
                    "holds the profile's page classes: an RTO ledger word packs both "
                    "(2^29 users with 5 to 8 pages)");
    idle_by_page_.resize(chain_.num_states(), 0);
    send_scratch_.resize(chain_.num_states(), 0);
    // P(an idle user wakes within one tick) for exponential think time.
    wake_probability_ = 1.0 - std::exp(-static_cast<double>(config_.cohort_tick) /
                                       static_cast<double>(profile_.think_time_mean));
    // Millisecond sub-slots within each tick (capped so a coarse tick still
    // bounds the per-tick slot scan). Wakers scatter uniformly over these,
    // so arrival instants stay spread like the exact model's instead of
    // bunching a whole tick's arrivals onto one instant.
    num_sub_slots_ = static_cast<int>(
        std::clamp<SimTime>(config_.cohort_tick / msec(1), 1, 128));
    sub_slot_width_ = config_.cohort_tick / num_sub_slots_;
    spread_scratch_.resize(static_cast<std::size_t>(chain_.num_states()) *
                               static_cast<std::size_t>(num_sub_slots_),
                           0);
    demand_scratch_.reserve(profile_.num_tiers());
    agenda_.assign(kLevelItems + static_cast<std::size_t>(config_.max_retries), kNoItem);
  }
  if (config_.record_response_series) {
    // Pre-size the post-warmup sample store: each user completes roughly one
    // request per think time, so a minute of samples per user is a generous
    // first chunk that avoids reallocation churn during warm-up. Capped so
    // enabling the series on a large population does not pre-book gigabytes.
    response_series_.reserve(
        std::min<std::size_t>(static_cast<std::size_t>(config_.num_users) * 8, 1u << 20));
  }
  // Quantized systems set their pool's service grid at construction (before
  // any clients exist), so the flag is stable from here on. Exact mode keeps
  // eager sampling: its RNG stream is the byte-stable reference.
  lazy_demands_ = router_.system().pool().hot().quantum() > 0.0;
  source_ = router_.register_source([this](const queueing::Request& r) { on_complete(r); },
                                    [this](const queueing::Request& r) { on_drop(r); });
  // Quantized-mode path: the router only delivers batches when the system
  // drains completion groups, so registering it is inert otherwise.
  router_.set_batch_complete(
      source_, [this](queueing::Request* const* reqs, std::size_t n) {
        on_complete_batch(reqs, n);
      });
}

void ClosedLoopClients::start() {
  MEMCA_CHECK_MSG(!started_, "clients already started");
  started_ = true;
  start_time_ = sim_.now();
  if (config_.mode == ClientMode::kCohort) {
    initial_pending_ = config_.num_users;
    // The first tick runs immediately: each tick draws wakes for the
    // *upcoming* [now, now + tick) window and scatters them inside it.
    agenda_[kTickItem] = AgendaItem{sim_.now(), sim_.reserve_seq()};
    arm_agenda(kTickItem);
    return;
  }
  for (int u = 0; u < config_.num_users; ++u) {
    user_page_[static_cast<std::size_t>(u)] = chain_.initial_state(rng_);
    // Uniform initial offset over one think period spreads arrivals out.
    const SimTime offset =
        static_cast<SimTime>(rng_.uniform(0.0, to_seconds(profile_.think_time_mean)) *
                             static_cast<double>(kSecond));
    sim_.schedule_in(offset, [this, u] {
      send_request(u, user_page_[static_cast<std::size_t>(u)], sim_.now(), 0);
    });
  }
}

void ClosedLoopClients::schedule_think(int user) {
  const SimTime think = rng_.exponential_time(profile_.think_time_mean);
  sim_.schedule_in(think, [this, user] {
    const auto u = static_cast<std::size_t>(user);
    user_page_[u] = chain_.next(user_page_[u], rng_);
    send_request(user, user_page_[u], sim_.now(), 0);
  });
}

void ClosedLoopClients::run_agenda() {
  std::size_t item = earliest_item();
  for (;;) {
    MEMCA_DCHECK(agenda_[item].time == sim_.now());
    if (item == kTickItem) {
      on_cohort_tick();
    } else if (item == kSubSlotItem) {
      run_sub_slot();
    } else {
      const int attempt = static_cast<int>(item - kLevelItems);
      const std::uint32_t group = rto_.pop_due(attempt);
      refresh_level(attempt);
      fire_rto_group(group);
    }
    // The next item runs inline while it is due now and nothing the engine
    // holds comes first; its event would have fired right here.
    item = earliest_item();
    const AgendaItem next = agenda_[item];
    if (next.time != sim_.now() || !sim_.first_at_now(next.seq)) break;
    sim_.consume_reserved(next.seq);
  }
  arm_agenda(item);
}

std::size_t ClosedLoopClients::earliest_item() const {
  std::size_t best = 0;
  for (std::size_t i = 1; i < agenda_.size(); ++i) {
    const AgendaItem& a = agenda_[i];
    const AgendaItem& b = agenda_[best];
    if (a.time < b.time || (a.time == b.time && a.seq < b.seq)) best = i;
  }
  return best;
}

void ClosedLoopClients::arm_agenda(std::size_t item) {
  agenda_event_ = sim_.schedule_reserved(agenda_[item].time, agenda_[item].seq,
                                         [this] { run_agenda(); });
}

void ClosedLoopClients::refresh_level(int attempt) {
  const std::uint32_t head = rto_.due(attempt);
  agenda_[kLevelItems + static_cast<std::size_t>(attempt)] =
      head == RtoLedger::kNone ? kNoItem : AgendaItem{rto_.deadline(head), rto_.seq(head)};
}

void ClosedLoopClients::on_cohort_tick() {
  const SimTime now = sim_.now();
  MEMCA_DCHECK(agenda_[kSubSlotItem].time == kNoItem.time);
  bool any = false;

  // Start-up ramp: the exact model spreads first sends uniformly over one
  // think period. Thin the not-yet-started count by the fraction of the
  // remaining ramp window the upcoming tick covers (uniform order
  // statistics), and draw the wakers' first pages from the chain's initial
  // distribution.
  if (initial_pending_ > 0) {
    const SimTime ramp_end = start_time_ + profile_.think_time_mean;
    const SimTime remaining = ramp_end - now;
    std::int64_t wake = initial_pending_;
    if (remaining > config_.cohort_tick) {
      const double p = static_cast<double>(config_.cohort_tick) /
                       static_cast<double>(remaining);
      wake = rng_.binomial(initial_pending_, p);
    }
    if (wake > 0) {
      initial_pending_ -= wake;
      chain_.sample_initial_counts(wake, rng_, send_scratch_);
      any = true;
    }
  }

  // Idle wake-ups for the [now, now + tick) window: one binomial draw per
  // page class, then a multinomial page transition for the wakers —
  // O(pages) work however large the population is.
  for (std::size_t p = 0; p < idle_by_page_.size(); ++p) {
    if (idle_by_page_[p] == 0) continue;
    const std::int64_t wake = rng_.binomial(idle_by_page_[p], wake_probability_);
    if (wake == 0) continue;
    idle_by_page_[p] -= wake;
    chain_.sample_transition_counts(static_cast<int>(p), wake, rng_, send_scratch_);
    any = true;
  }

  if (any) {
    // Scatter the wakers uniformly over the tick's sub-slots: conditioned
    // on waking inside a window much shorter than the think time, the
    // truncated-exponential wake instant is uniform to first order. One
    // draw per waker — the same asymptotic cost as the per-arrival sends
    // that follow, and what keeps per-instant queue transients matched to
    // the exact model's spread arrivals.
    const auto pages = static_cast<std::size_t>(chain_.num_states());
    for (std::size_t p = 0; p < pages; ++p) {
      std::int64_t count = send_scratch_[p];
      send_scratch_[p] = 0;
      waking_ += count;
      while (count-- > 0) {
        const auto slot =
            static_cast<std::size_t>(rng_.uniform_int(0, num_sub_slots_ - 1));
        ++spread_scratch_[slot * pages + p];
      }
    }

    // One reserved seq per occupied sub-slot, back to back in sub-slot
    // order: nothing can fall between a sub-slot's per-page sends in
    // (time, seq), so one seq stands for all of them. Every sub-slot lies
    // before the next tick, so its row is sent and zeroed by then.
    for (int s = next_sub_slot(0); s < num_sub_slots_; s = next_sub_slot(s + 1)) {
      const std::uint64_t seq = sim_.reserve_seq();
      if (agenda_[kSubSlotItem].time == kNoItem.time) {
        agenda_[kSubSlotItem] = AgendaItem{now + s * sub_slot_width_, seq};
      }
    }
  }

  agenda_[kTickItem] = AgendaItem{now + config_.cohort_tick, sim_.reserve_seq()};
}

int ClosedLoopClients::next_sub_slot(int s) const {
  const auto pages = static_cast<std::ptrdiff_t>(chain_.num_states());
  for (; s < num_sub_slots_; ++s) {
    const auto row = spread_scratch_.begin() + s * pages;
    if (std::any_of(row, row + pages, [](std::int64_t n) { return n != 0; })) break;
  }
  return s;
}

void ClosedLoopClients::run_sub_slot() {
  AgendaItem& item = agenda_[kSubSlotItem];
  const SimTime tick_start = agenda_[kTickItem].time - config_.cohort_tick;
  const auto s = static_cast<int>((item.time - tick_start) / sub_slot_width_);
  const auto pages = static_cast<std::size_t>(chain_.num_states());
  for (std::size_t p = 0; p < pages; ++p) {
    std::int64_t& cell = spread_scratch_[static_cast<std::size_t>(s) * pages + p];
    if (cell == 0) continue;
    const auto count = static_cast<std::int32_t>(cell);
    cell = 0;
    send_cohort_burst(static_cast<int>(p), count);
  }
  // The next occupied sub-slot reserved the seq right after this one's.
  const int next = next_sub_slot(s + 1);
  item = next < num_sub_slots_ ? AgendaItem{tick_start + next * sub_slot_width_, item.seq + 1}
                               : kNoItem;
}

// Admission at the door only ever takes a front-tier thread, so within one
// event the accepted attempts of a burst or RTO group form a prefix: once
// accepting() turns false, every later attempt is rejected. Only the prefix
// goes through send_request; reject_at_door settles the rest in one pass.

void ClosedLoopClients::send_cohort_burst(int page, std::int32_t count) {
  waking_ -= count;
  std::int32_t sent = 0;
  for (; sent < count && router_.system().accepting(); ++sent) {
    send_request(static_cast<int>(slots_.alloc()), page, sim_.now(), 0);
  }
  if (sent == count) return;
  reject_at_door(0, count - sent, Drops{RtoLedger::kNone, nullptr, sim_.now(), page});
}

void ClosedLoopClients::fire_rto_group(std::uint32_t group) {
  const int next_attempt = rto_.attempt(group) + 1;
  const SimTime first_sent = rto_.first_sent(group);
  RtoLedger::Cursor it = rto_.cursor(group);
  auto left = static_cast<std::int64_t>(rto_.size(group));
  for (; left > 0 && router_.system().accepting(); --left) {
    const RtoLedger::Entry e = it.next();
    send_request(static_cast<int>(e.user), e.page, first_sent, next_attempt);
  }
  if (left == 0) {
    rto_.free(group);
    return;
  }
  reject_at_door(next_attempt, left, Drops{group, &it});
}

void ClosedLoopClients::reject_at_door(int attempt, std::int64_t k, const Drops& drops) {
  submitted_ += k;
  const queueing::Request::Id first_id = router_.reject_at_door(source_, k);
  settle_drops(attempt, k, first_id, /*at_door=*/true, drops);
}

void ClosedLoopClients::settle_drops(int attempt, std::int64_t k,
                                     queueing::Request::Id first_id, bool at_door,
                                     const Drops& drops) {
  dropped_attempts_ += k;
  const bool abandon = attempt >= config_.max_retries;
  const bool fresh = drops.fired == RtoLedger::kNone;
  SimTime rto = 0;
  RtoLedger::Parked parked;
  if (abandon) {
    // Abandon: the users give up on this page and think again.
    failed_ += k;
  } else {
    // RFC 6298: RTO floor of 1 s, exponential backoff per retry. Drops at
    // one instant and attempt that were first sent together share one
    // ledger group; the fire drains them together.
    rto = rto_backoff(config_.min_rto, attempt);
    if (fresh) parked = rto_.open(attempt, sim_.now() + rto, drops.first_sent);
  }
  // Exact-mode demand draws and trace events are the per-entry work; the
  // bookkeeping runs once per block span. A fired group that bounces again
  // is relabelled in place below, so its entries are read only to observe.
  const bool draw = at_door && !lazy_demands_;
  const bool observe = draw || traces_drops();
  if (fresh || abandon || observe) {
    queueing::Request::Id id = first_id;
    RtoLedger::Word drop = 0;
    for (std::int64_t left = k; left > 0;) {
      const auto want = static_cast<std::size_t>(left);
      RtoLedger::Run run;
      if (!fresh) {
        run = drops.rest->next_run(want);
        if (abandon) {
          // In drain order, each user hands back its id and goes idle on
          // its page.
          slots_.release_n(run.size, [&](std::size_t i) {
            const RtoLedger::Entry e = run[i];
            ++idle_by_page_[static_cast<std::size_t>(e.page)];
            return e.user;
          });
        }
      } else if (abandon) {
        // Each drop would take the top free id and hand it straight back:
        // one take and return leave the allocator as all of them would,
        // and every drop carries that id.
        const std::uint32_t user = slots_.alloc();
        slots_.release(user);
        idle_by_page_[static_cast<std::size_t>(drops.page)] += left;
        drop = rto_.pack(drops.page, user);
        run = RtoLedger::Run{&drop, 0, want, drops.first_sent, rto_.page_bits()};
      } else {
        // Each drop takes the id alloc() would give it, in order, and parks.
        const std::span<RtoLedger::Word> parked_run = rto_.append(attempt, want);
        slots_.alloc_n(parked_run.size(), [&](std::size_t i, std::uint32_t user) {
          parked_run[i] = rto_.pack(drops.page, user);
        });
        run = RtoLedger::Run{parked_run.data(), 1, parked_run.size(), drops.first_sent,
                             rto_.page_bits()};
      }
      left -= static_cast<std::int64_t>(run.size);
      if (!observe) continue;
      for (std::size_t i = 0; i < run.size; ++i, id += RequestRouter::kIdStride) {
        const RtoLedger::Entry e = run[i];
        const auto user = static_cast<std::int32_t>(e.user);
        if (draw) profile_.sample_demands_into(e.page, rng_, demand_scratch_);
        if (at_door) router_.system().trace_door_drop(sim_.now(), id, user, attempt);
        if (abandon) {
          mark(trace::EventKind::kAbandon, id, user, attempt, run.first_sent);
        } else {
          mark(trace::EventKind::kRetransmit, id, user, attempt, rto);
        }
      }
    }
  }
  if (!fresh) {
    if (abandon) {
      rto_.free(drops.fired);
      return;
    }
    rto_.relabel(drops.fired, static_cast<std::size_t>(k), sim_.now() + rto);
    parked = RtoLedger::Parked{drops.fired, true};
  }
  if (parked.opened) {
    // The group takes the seq its own timer event would take here; the
    // agenda fires it under that seq, so no event's (time, seq) moves.
    rto_.set_seq(parked.group, sim_.reserve_seq());
    if (rto_.due(attempt) == parked.group) refresh_level(attempt);
  }
}

void ClosedLoopClients::send_request(int user, int page, SimTime first_sent, int attempt) {
  if (config_.mode == ClientMode::kExact) {
    user_busy_[static_cast<std::size_t>(user)] = 1;
  }
  auto req = router_.make_request(source_);
  req->user = user;
  req->page_class = page;
  req->set_attempt(attempt);
  req->set_first_sent(first_sent);
  req->set_sent(sim_.now());
  if (!lazy_demands_ || router_.system().accepting()) {
    profile_.sample_demands_into(page, rng_, req->demand_us);
  } else {
    // Quantized mode, entry tier full: this attempt drops synchronously in
    // submit() and its demands are never staged (try_submit stages on
    // admission only), so the three RNG draws would be pure waste — and
    // during an overload storm the drops outnumber admissions a
    // thousandfold. Skipping them forks the quantized RNG stream from the
    // exact one, which is fine: quantized mode is a distinct event stream
    // with its own goldens, validated statistically against exact.
    req->demand_us.resize(profile_.num_tiers());
  }
  ++submitted_;
  router_.submit(req);
}

SimTime ClosedLoopClients::record_completion(const queueing::Request& req) {
  ++completed_;
  mark(trace::EventKind::kComplete, req, req.first_sent());
  if (req.attempt() > 0) ++retransmitted_completions_;
  const SimTime rt = sim_.now() - req.first_sent();
  const bool post_warmup = sim_.now() >= config_.stats_warmup;
  if (post_warmup) {
    response_times_.record(rt);
    if (config_.record_response_series) {
      response_series_.append(sim_.now(), static_cast<double>(rt));
    }
  }
  if (completion_observer_) {
    completion_observer_(CompletionEvent{sim_.now(), req.id, req.first_sent(), req.user,
                                         req.attempt(), rt, post_warmup});
  }
  return rt;
}

void ClosedLoopClients::on_complete(const queueing::Request& req) {
  record_completion(req);
  if (config_.mode == ClientMode::kCohort) {
    // The user rejoins the idle pool on the page it just fetched; its slot
    // id returns to the allocator.
    slots_.release(static_cast<std::uint32_t>(req.user));
    ++idle_by_page_[static_cast<std::size_t>(req.page_class)];
    return;
  }
  user_busy_[static_cast<std::size_t>(req.user)] = 0;
  schedule_think(req.user);
}

void ClosedLoopClients::on_complete_batch(queueing::Request* const* reqs, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) record_completion(*reqs[i]);
  if (config_.mode == ClientMode::kCohort) {
    // One slot-free / idle-recount pass for the whole group: the scheduling
    // tail touches only the allocator free list and the per-page counters,
    // never a timer — the cohort tick picks the returned users up on its
    // next binomial draw.
    for (std::size_t i = 0; i < n; ++i) {
      const queueing::Request& req = *reqs[i];
      slots_.release(static_cast<std::uint32_t>(req.user));
      ++idle_by_page_[static_cast<std::size_t>(req.page_class)];
    }
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const queueing::Request& req = *reqs[i];
    user_busy_[static_cast<std::size_t>(req.user)] = 0;
    schedule_think(req.user);
  }
}

void ClosedLoopClients::on_drop(const queueing::Request& req) {
  if (config_.mode == ClientMode::kCohort) {
    // A drop the system itself reported (e.g. a tandem front or interior
    // overflow): the system already counted and traced it. The user hands
    // its id back and settles as one fresh drop, which takes the top free
    // id: the same one.
    slots_.release(static_cast<std::uint32_t>(req.user));
    settle_drops(req.attempt(), 1, req.id, /*at_door=*/false,
                 Drops{RtoLedger::kNone, nullptr, req.first_sent(), req.page_class});
    return;
  }
  ++dropped_attempts_;
  if (req.attempt() >= config_.max_retries) {
    // Abandon: the user gives up on this page and thinks again.
    ++failed_;
    mark(trace::EventKind::kAbandon, req, req.first_sent());
    user_busy_[static_cast<std::size_t>(req.user)] = 0;
    schedule_think(req.user);
    return;
  }
  // RFC 6298: RTO floor of 1 s, exponential backoff per retry.
  const SimTime rto = rto_backoff(config_.min_rto, req.attempt());
  mark(trace::EventKind::kRetransmit, req, rto);
  const int user = req.user;
  const int page = req.page_class;
  const SimTime first_sent = req.first_sent();
  const int next_attempt = req.attempt() + 1;
  ++rto_backlog_;
  sim_.schedule_in(rto, [this, user, page, first_sent, next_attempt] {
    --rto_backlog_;
    send_request(user, page, first_sent, next_attempt);
  });
}

std::int64_t ClosedLoopClients::idle_users() const {
  // Wakers scattered to a sub-slot whose item has not run yet are still
  // thinking — they hold no slot, so they count as idle here or the
  // population conservation invariant breaks mid-tick.
  std::int64_t idle = initial_pending_ + waking_;
  for (std::int64_t n : idle_by_page_) idle += n;
  return idle;
}

std::size_t ClosedLoopClients::memory_bytes() const {
  return user_page_.capacity() * sizeof(std::int32_t) + user_busy_.capacity() +
         idle_by_page_.capacity() * sizeof(std::int64_t) +
         send_scratch_.capacity() * sizeof(std::int64_t) +
         spread_scratch_.capacity() * sizeof(std::int64_t) +
         demand_scratch_.capacity() * sizeof(double) +
         agenda_.capacity() * sizeof(AgendaItem) + slots_.memory_bytes() +
         rto_.memory_bytes() + response_series_.samples().capacity() * sizeof(Sample);
}

double ClosedLoopClients::throughput() const {
  const SimTime elapsed = sim_.now() - start_time_;
  if (elapsed <= 0) return 0.0;
  return static_cast<double>(completed_) / to_seconds(elapsed);
}

}  // namespace memca::workload
